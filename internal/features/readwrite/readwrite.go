// Package readwrite implements read-write splitting (paper Section IV-C):
// a logical data source name expands to one primary and N replicas;
// writes, locking reads and every statement inside a transaction go to the
// primary, plain reads rotate round-robin across the replicas whose
// breaker would admit them (Governor.Ready), so a failed replica leaves
// rotation while its breaker is open and rejoins when its cool-down ends.
package readwrite

import (
	"fmt"
	"sync/atomic"

	"shardingsphere/internal/governor"
	"shardingsphere/internal/sqlparser"
)

// Group is one read-write splitting group.
type Group struct {
	// Name is the logical data source name sharding rules reference.
	Name string
	// Primary receives writes and transactional statements.
	Primary string
	// Replicas receive plain reads.
	Replicas []string

	next atomic.Uint64 // round-robin position over the ready replicas
}

// Feature routes reads to replicas. It implements the kernel's
// SourceResolver hook.
type Feature struct {
	groups map[string]*Group
}

// New builds the feature from groups.
func New(groups ...*Group) (*Feature, error) {
	f := &Feature{groups: map[string]*Group{}}
	for _, g := range groups {
		if g.Name == "" || g.Primary == "" {
			return nil, fmt.Errorf("readwrite: group needs a name and a primary")
		}
		f.groups[g.Name] = g
	}
	return f, nil
}

// Name implements core.Feature.
func (f *Feature) Name() string { return "readwrite-splitting" }

// ResolveSource implements the kernel hook: a read outside a transaction
// goes to the next replica, round-robin, among those whose breaker is
// ready, so the survivors of a failed replica share its reads evenly; with
// none ready it goes to the primary, as does everything else. It claims no
// probe slot: the kernel's Admit does, when the statement runs.
func (f *Feature) ResolveSource(ds string, readOnly, inTx bool, stmt sqlparser.Statement, gov *governor.Governor) string {
	g, ok := f.groups[ds]
	if !ok {
		return ds
	}
	if !readOnly || inTx {
		return g.Primary
	}
	ready := uint64(0)
	for _, r := range g.Replicas {
		if gov.Ready(r) {
			ready++
		}
	}
	if ready == 0 {
		return g.Primary
	}
	k := (g.next.Add(1) - 1) % ready
	for _, r := range g.Replicas {
		if gov.Ready(r) {
			if k == 0 {
				return r
			}
			k--
		}
	}
	// A breaker moved between the two passes.
	return g.Primary
}

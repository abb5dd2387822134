// Package readwrite implements read-write splitting (paper Section IV-C):
// a logical data source name expands to one primary and N replicas;
// writes, locking reads and every statement inside a transaction go to the
// primary, plain reads rotate round-robin across healthy replicas.
package readwrite

import (
	"fmt"
	"sync"
	"sync/atomic"

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

	next     atomic.Int64 // round-robin position over the live replicas
	mu       sync.RWMutex
	disabled map[string]bool
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
		g.disabled = map[string]bool{}
		f.groups[g.Name] = g
	}
	return f, nil
}

// Name implements core.Feature.
func (f *Feature) Name() string { return "readwrite-splitting" }

// DisableReplica removes a replica from rotation (health detection calls
// this when a replica dies); EnableReplica restores it.
func (f *Feature) DisableReplica(group, replica string) {
	if g, ok := f.groups[group]; ok {
		g.mu.Lock()
		g.disabled[replica] = true
		g.mu.Unlock()
	}
}

// EnableReplica restores a replica into rotation.
func (f *Feature) EnableReplica(group, replica string) {
	if g, ok := f.groups[group]; ok {
		g.mu.Lock()
		delete(g.disabled, replica)
		g.mu.Unlock()
	}
}

// OnSourceHealth applies a governor health event: a source going down is
// pulled from every group's replica rotation, a recovery restores it.
// Wired to Governor.Subscribe so breaker flips re-route reads without
// manual intervention.
func (f *Feature) OnSourceHealth(ds string, up bool) {
	for _, g := range f.groups {
		for _, r := range g.Replicas {
			if r != ds {
				continue
			}
			if up {
				f.EnableReplica(g.Name, ds)
			} else {
				f.DisableReplica(g.Name, ds)
			}
		}
	}
}

// ResolveSource implements the kernel hook: reads outside transactions go
// to a healthy replica, everything else to the primary.
func (f *Feature) ResolveSource(ds string, readOnly, inTx bool, stmt sqlparser.Statement) string {
	g, ok := f.groups[ds]
	if !ok {
		return ds
	}
	if !readOnly || inTx {
		return g.Primary
	}
	g.mu.RLock()
	live := make([]string, 0, len(g.Replicas))
	for _, r := range g.Replicas {
		if !g.disabled[r] {
			live = append(live, r)
		}
	}
	g.mu.RUnlock()
	if len(live) == 0 {
		return g.Primary
	}
	return live[int(g.next.Add(1)-1)%len(live)]
}

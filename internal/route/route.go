// Package route implements the SQL router (paper Section VI-B): it maps a
// logical statement onto data nodes. Statements whose WHERE clause pins
// the sharding key take the standard route (one or a few nodes);
// everything else broadcasts. A join is co-located when every sharded
// table is bound to the first and the statement's top-level AND conjuncts
// equate their sharding columns; it routes per shard (the binding route).
// Any other join takes every combination of its tables' nodes (the
// Cartesian route). A route is refused with ErrNotColocated when a
// combination spans data sources, when one unit would need two actual
// tables of one logic table, or when a join that is not co-located has a
// sharded table on the NULL-extended side of an outer join and more than
// one unit: no union of units gives one database's answer then.
package route

import (
	"errors"
	"slices"
	"sync/atomic"

	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
)

// Errors returned by the router.
var (
	ErrNoShardingValue = errors.New("route: INSERT without a sharding key value")
	ErrUpdateSharding  = errors.New("route: updating the sharding key is not supported")
	ErrNotColocated    = errors.New("route: join is not co-located (bind its tables and equate their sharding columns, or put their shards on one data source)")
	ErrNoDataSource    = errors.New("route: statement routes to no data source")
)

// Kind labels which strategy produced a route, mirroring the paper's
// taxonomy; experiments and EXPLAIN output surface it.
type Kind uint8

// Route kinds.
const (
	KindStandard Kind = iota
	KindBinding
	KindCartesian
	KindBroadcast
	KindDefault // unsharded statement to the default data source
)

func (k Kind) String() string {
	switch k {
	case KindStandard:
		return "standard"
	case KindBinding:
		return "binding"
	case KindCartesian:
		return "cartesian"
	case KindBroadcast:
		return "broadcast"
	default:
		return "default"
	}
}

// Unit is one rewritten-statement target: a data source plus the
// logical→actual table mapping to apply there. Single-table units share
// their rule's per-node map (sharding.NodeIndex.Of), so TableMap is
// read-only.
type Unit struct {
	DataSource string
	TableMap   map[string]string
	// RowIndexes carries, for a multi-row INSERT, which value tuples this
	// unit receives (nil means all).
	RowIndexes []int
}

// Result is the full route result. A route of up to two units keeps them
// in the result itself, so binding a point select allocates the result
// alone, or nothing when the caller routes into a Result it owns
// (Skeleton.RouteInto).
type Result struct {
	Kind   Kind
	Units  []Unit
	inline [2]Unit
}

// reset empties res for a route of the kind with room for n units.
func (res *Result) reset(kind Kind, n int) {
	*res = Result{Kind: kind}
	res.Units = slices.Grow(res.inline[:0], n)
}

// SingleNode reports whether the route hit exactly one data node, which
// unlocks the rewriter's single-node optimizations (paper Section VI-C).
func (r *Result) SingleNode() bool { return len(r.Units) == 1 }

// DataSources returns the distinct data sources touched, in unit order.
func (r *Result) DataSources() []string {
	var out []string
	seen := map[string]bool{}
	for _, u := range r.Units {
		if !seen[u.DataSource] {
			seen[u.DataSource] = true
			out = append(out, u.DataSource)
		}
	}
	return out
}

// Router routes statements against the published rule snapshot.
type Router struct {
	rules *atomic.Pointer[sharding.RuleSet]
	// AllDataSources lists every known data source for DDL broadcast and
	// broadcast tables.
	allDataSources []string
	// Columns optionally resolves a sharded table's column order; INSERT
	// statements without an explicit column list need it to locate the
	// sharding key. The kernel wires its metadata service here.
	Columns func(rule *sharding.TableRule) ([]string, error)

	// keyObs, when installed, sees every equality sharding-key value the
	// router resolves (hot-key tracking). Off by default: the cost is one
	// atomic nil load per routed table.
	keyObs atomic.Pointer[KeyObserver]
}

// KeyObserver receives routed sharding-key values.
type KeyObserver func(table, column string, v sqltypes.Value)

// SetKeyObserver installs (or, with nil, removes) the sharding-key
// observer.
func (r *Router) SetKeyObserver(fn KeyObserver) {
	if fn == nil {
		r.keyObs.Store(nil)
		return
	}
	r.keyObs.Store(&fn)
}

// noteKeys reports a routed table's equality sharding-key values to the
// observer; conds[i] is the condition on cols[i]. Range conditions are
// skipped — a range is not a key.
func (r *Router) noteKeys(table string, cols []string, conds []sharding.Condition) {
	obs := r.keyObs.Load()
	if obs == nil {
		return
	}
	for i, c := range conds {
		if c.Ranged {
			continue
		}
		for _, v := range c.Values {
			(*obs)(table, cols[i], v)
		}
	}
}

// New builds a router over a published rule snapshot: rules holds the
// current RuleSet, which is never edited once stored there. allDataSources
// is the complete data source list (used for broadcast routes).
func New(rules *atomic.Pointer[sharding.RuleSet], allDataSources []string) *Router {
	return &Router{rules: rules, allDataSources: allDataSources}
}

// Route maps a statement to its units: the statement is compiled into its
// route skeleton and the arguments are bound to it. A caller that routes
// one statement many times keeps the skeleton (BuildSkeleton) and only
// binds. The last parameter is unused; it stays until the benchmark's
// callers, which pass nil, stop passing it.
func (r *Router) Route(stmt sqlparser.Statement, args []sqltypes.Value, _ *sqltypes.Value) (*Result, error) {
	sk, _ := r.BuildSkeleton(stmt)
	return sk.Route(args, nil)
}

// everySource is the route of a broadcast table's DML and DDL.
func (r *Router) everySource(res *Result) {
	res.reset(KindBroadcast, len(r.allDataSources))
	for _, ds := range r.allDataSources {
		res.Units = append(res.Units, Unit{DataSource: ds, TableMap: map[string]string{}})
	}
}

func unitsFromNodes(res *Result, ix *sharding.NodeIndex, nodes []sharding.DataNode, kind Kind) {
	res.reset(kind, len(nodes))
	for _, n := range nodes {
		res.Units = append(res.Units, Unit{DataSource: n.DataSource, TableMap: ix.Of(n)})
	}
}

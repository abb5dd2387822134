package sharding

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync/atomic"

	"shardingsphere/internal/sqltypes"
)

// DataNode is the atomic unit of sharding: one actual table in one data
// source (paper Section IV-A), e.g. {ds0, t_user_h1}.
type DataNode struct {
	DataSource string
	Table      string
}

// String renders "ds.table".
func (n DataNode) String() string { return n.DataSource + "." + n.Table }

// Condition is the routing information extracted for one sharding column:
// either a list of exact values (=, IN) or an inclusive range (BETWEEN,
// comparison chains); nil bounds are open. The zero Condition is a column
// the statement does not constrain.
type Condition struct {
	Values []sqltypes.Value
	Lo, Hi *sqltypes.Value
	Ranged bool
}

// Present reports whether the condition constrains its column.
func (c Condition) Present() bool { return c.Ranged || c.Values != nil }

// Strategy pairs a sharding column with an algorithm.
type Strategy struct {
	Column    string
	Algorithm Algorithm
}

// TableRule is the sharding configuration of one logic table.
type TableRule struct {
	LogicTable string
	// DataNodes lists every actual table, ordered by shard index.
	DataNodes []DataNode
	// Auto marks an AutoTable rule (paper Section V-A): a single strategy
	// assigns rows directly to data nodes; the data source is implied by
	// the chosen actual table.
	Auto bool
	// AutoStrategy is the strategy of an AutoTable rule.
	AutoStrategy *Strategy
	// AutoSpec preserves the AutoTable configuration for persistence
	// (the Governor round-trips rules through the registry with it).
	AutoSpec *AutoTableSpec
	// DBStrategy and TableStrategy drive standard (manually laid out)
	// rules: the database strategy picks data sources, the table strategy
	// picks actual tables within each.
	DBStrategy    *Strategy
	TableStrategy *Strategy
	// KeyGenColumn, when set with KeyGen, fills the named column of
	// INSERTs that omit it with generated distributed keys (AUTO_INCREMENT
	// would collide across shards).
	KeyGenColumn string
	KeyGen       KeyGenerator

	// index is derived from DataNodes on first use; see NodeIndex.
	index atomic.Pointer[NodeIndex]
}

// NodeIndex is what routing derives from a rule and would otherwise
// rebuild per statement: the actual-table list, the node and table
// lookups, one logic→actual table map per data node, the sharding columns
// and where each strategy's column sits among them. It is shared and
// read-only; a route skeleton resolves it at compile and holds it until
// the next rule publication.
type NodeIndex struct {
	rule     *TableRule
	tables   []string
	byNode   map[DataNode]int
	byTable  map[string]int // first node holding the actual table
	maps     []map[string]string
	sources  []string            // distinct data sources, in order
	tablesIn map[string][]string // each source's actual tables, in order
	cols     []string            // distinct sharding columns, lower-cased
	at       [2]int              // column position of the auto or database strategy, then of the table strategy; -1 for none
}

// NodeIndex returns the rule's node index, built on first use.
func (r *TableRule) NodeIndex() *NodeIndex {
	if ix := r.index.Load(); ix != nil {
		return ix
	}
	ix := &NodeIndex{
		rule:     r,
		tables:   make([]string, len(r.DataNodes)),
		byNode:   make(map[DataNode]int, len(r.DataNodes)),
		byTable:  make(map[string]int, len(r.DataNodes)),
		maps:     make([]map[string]string, len(r.DataNodes)),
		tablesIn: map[string][]string{},
	}
	if r.Auto {
		ix.at[0] = ix.place(r.AutoStrategy)
	} else {
		ix.at[0], ix.at[1] = ix.place(r.DBStrategy), ix.place(r.TableStrategy)
	}
	for i, n := range r.DataNodes {
		ix.tables[i] = n.Table
		ix.byNode[n] = i
		if _, dup := ix.byTable[n.Table]; !dup {
			ix.byTable[n.Table] = i
		}
		ix.maps[i] = map[string]string{r.LogicTable: n.Table}
		if _, seen := ix.tablesIn[n.DataSource]; !seen {
			ix.sources = append(ix.sources, n.DataSource)
		}
		ix.tablesIn[n.DataSource] = append(ix.tablesIn[n.DataSource], n.Table)
	}
	r.index.Store(ix)
	return ix
}

// place adds s's column to the index's, once, and returns its position,
// or -1 when s has no column.
func (ix *NodeIndex) place(s *Strategy) int {
	if s == nil || s.Column == "" {
		return -1
	}
	name := strings.ToLower(s.Column)
	i := slices.Index(ix.cols, name)
	if i < 0 {
		i = len(ix.cols)
		ix.cols = append(ix.cols, name)
	}
	return i
}

// Of returns the node's logic→actual table map. The map is shared and
// read-only: a caller that adds entries copies it first.
func (ix *NodeIndex) Of(n DataNode) map[string]string {
	if i, ok := ix.byNode[n]; ok {
		return ix.maps[i]
	}
	return map[string]string{ix.rule.LogicTable: n.Table}
}

// Shard returns the shard ordinal of a data node, or -1.
func (ix *NodeIndex) Shard(n DataNode) int {
	if i, ok := ix.byNode[n]; ok {
		return i
	}
	return -1
}

// Columns lists the distinct columns that influence routing for the rule,
// lower-cased: a route's conditions are aligned with it. The list is
// derived from the strategies the rule was made with and shared: callers
// must not modify it.
func (ix *NodeIndex) Columns() []string { return ix.cols }

// ErrNoRule reports a table with no sharding rule.
var ErrNoRule = errors.New("sharding: no rule for table")

// applyStrategy routes a strategy over targets given the conditions on the
// rule's sharding columns, at holding the strategy's column position (-1
// for a nil strategy or one without a column); conds may stop short of the
// rule's columns. A column without a condition matches every target. Exact
// values' picks are appended to dst. A range that no target holds takes
// the first target: no row lies in it, and one scan finds that out.
func applyStrategy(s *Strategy, at int, targets []string, conds []Condition, dst []string) ([]string, error) {
	if at < 0 || at >= len(conds) || !conds[at].Present() {
		return targets, nil
	}
	cond := conds[at]
	if cond.Ranged {
		out, err := s.Algorithm.DoRange(targets, cond.Lo, cond.Hi)
		if errors.Is(err, ErrNoTarget) && len(targets) > 0 {
			return targets[:1], nil
		}
		return out, err
	}
	out := dst
	for _, v := range cond.Values {
		t, err := s.Algorithm.Precise(targets, v)
		if err != nil {
			return nil, err
		}
		if !slices.Contains(out, t) {
			out = append(out, t)
		}
	}
	return out, nil
}

// Route appends to dst the rule's data nodes matching the conditions:
// conds[i] is the condition on Columns()[i], and a column past the end of
// conds has none. With no usable condition every node is returned — the
// full-broadcast case the paper warns about.
func (ix *NodeIndex) Route(conds []Condition, dst []DataNode) ([]DataNode, error) {
	r := ix.rule
	var buf [2]string
	if r.Auto {
		tables, err := applyStrategy(r.AutoStrategy, ix.at[0], ix.tables, conds, buf[:0])
		if err != nil {
			return nil, err
		}
		out := slices.Grow(dst, len(tables))
		for _, t := range tables {
			i, ok := ix.byTable[t]
			if !ok {
				return nil, fmt.Errorf("sharding: auto rule %s routed to unknown table %s", r.LogicTable, t)
			}
			out = append(out, r.DataNodes[i])
		}
		return out, nil
	}
	dss, err := applyStrategy(r.DBStrategy, ix.at[0], ix.sources, conds, buf[:0])
	if err != nil {
		return nil, err
	}
	out := dst
	for _, ds := range dss {
		var tbuf [2]string
		tables, err := applyStrategy(r.TableStrategy, ix.at[1], ix.tablesIn[ds], conds, tbuf[:0])
		if err != nil {
			return nil, err
		}
		for _, t := range tables {
			out = append(out, DataNode{DataSource: ds, Table: t})
		}
	}
	return out, nil
}

// RuleSet is the complete sharding configuration: per-table rules, binding
// groups, broadcast tables and the default data sources for unsharded
// tables. A kernel publishes rule sets as immutable snapshots: a change is
// made to a Clone, never to a published set.
type RuleSet struct {
	Tables map[string]*TableRule
	// BindingGroups lists groups of logic tables sharded identically
	// (paper Section IV-A, "binding table").
	BindingGroups [][]string
	// Broadcast tables exist identically in every data source (dimension
	// tables); DML on them fans out everywhere.
	Broadcast map[string]bool
	// DefaultDataSource hosts tables with no rule.
	DefaultDataSource string
}

// NewRuleSet returns an empty rule set.
func NewRuleSet() *RuleSet {
	return &RuleSet{Tables: map[string]*TableRule{}, Broadcast: map[string]bool{}}
}

// Clone copies the set's maps and its list of binding groups. The
// TableRules and each group's table list, which no mutator edits in
// place, are shared.
func (rs *RuleSet) Clone() *RuleSet {
	return &RuleSet{
		Tables:            maps.Clone(rs.Tables),
		BindingGroups:     slices.Clone(rs.BindingGroups),
		Broadcast:         maps.Clone(rs.Broadcast),
		DefaultDataSource: rs.DefaultDataSource,
	}
}

// Rule returns the rule for a logic table.
func (rs *RuleSet) Rule(table string) (*TableRule, bool) {
	r, ok := rs.Tables[strings.ToLower(table)]
	return r, ok
}

// AddRule registers a rule under its logic table name.
func (rs *RuleSet) AddRule(r *TableRule) {
	rs.Tables[strings.ToLower(r.LogicTable)] = r
}

// RemoveRule drops a rule, reporting whether it existed.
func (rs *RuleSet) RemoveRule(table string) bool {
	key := strings.ToLower(table)
	if _, ok := rs.Tables[key]; !ok {
		return false
	}
	delete(rs.Tables, key)
	// Remove from binding groups too, into new slices: a clone shares its
	// groups' arrays with the set it was cloned from.
	groups := make([][]string, len(rs.BindingGroups))
	for gi, group := range rs.BindingGroups {
		groups[gi] = slices.DeleteFunc(slices.Clone(group), func(t string) bool { return strings.EqualFold(t, table) })
	}
	rs.BindingGroups = groups
	return true
}

// IsSharded reports whether the logic table has a rule.
func (rs *RuleSet) IsSharded(table string) bool {
	_, ok := rs.Tables[strings.ToLower(table)]
	return ok
}

// AddBindingGroup declares the tables mutually binding. It validates that
// all tables exist and that shard i of each is on the same data source.
func (rs *RuleSet) AddBindingGroup(tables ...string) error {
	if len(tables) < 2 {
		return fmt.Errorf("sharding: a binding group needs at least two tables")
	}
	var first *TableRule
	for _, t := range tables {
		r, ok := rs.Rule(t)
		if !ok {
			return fmt.Errorf("%w: %s", ErrNoRule, t)
		}
		if first == nil {
			first = r
		} else if !slices.EqualFunc(r.DataNodes, first.DataNodes, func(a, b DataNode) bool { return a.DataSource == b.DataSource }) {
			return fmt.Errorf("sharding: binding tables %s and %s have different shard layouts", tables[0], t)
		}
	}
	rs.BindingGroups = append(rs.BindingGroups, append([]string(nil), tables...))
	return nil
}

// Bound reports whether two logic tables are binding tables of each other.
func (rs *RuleSet) Bound(a, b string) bool {
	if strings.EqualFold(a, b) {
		return true
	}
	for _, group := range rs.BindingGroups {
		hasA, hasB := false, false
		for _, t := range group {
			if strings.EqualFold(t, a) {
				hasA = true
			}
			if strings.EqualFold(t, b) {
				hasB = true
			}
		}
		if hasA && hasB {
			return true
		}
	}
	return false
}

// LogicTables lists the rule table names, unsorted.
func (rs *RuleSet) LogicTables() []string {
	out := make([]string, 0, len(rs.Tables))
	for t := range rs.Tables {
		out = append(out, t)
	}
	return out
}

// --- AutoTable construction (paper Section V-A) ---

// AutoTableSpec describes a CREATE SHARDING TABLE RULE ... request.
type AutoTableSpec struct {
	LogicTable     string
	Resources      []string // data source names
	ShardingColumn string
	AlgorithmType  string // MOD, HASH_MOD, ...
	Properties     map[string]string
	ShardingCount  int // shards; defaults to properties["sharding-count"]
}

// BuildAutoRule computes the data distribution for an AutoTable: shard i
// becomes actual table "<logic>_<i>" on resource i % len(resources), and
// the named algorithm routes rows to shards. The caller (DistSQL executor)
// creates the physical tables.
func BuildAutoRule(spec AutoTableSpec) (*TableRule, error) {
	if len(spec.Resources) == 0 {
		return nil, fmt.Errorf("sharding: auto table %s needs resources", spec.LogicTable)
	}
	count := spec.ShardingCount
	if count == 0 {
		if s, ok := spec.Properties["sharding-count"]; ok {
			fmt.Sscanf(s, "%d", &count)
		}
	}
	if count <= 0 {
		return nil, fmt.Errorf("sharding: auto table %s needs a positive sharding-count", spec.LogicTable)
	}
	props := map[string]string{}
	for k, v := range spec.Properties {
		props[k] = v
	}
	if _, ok := props["sharding-count"]; !ok {
		props["sharding-count"] = fmt.Sprintf("%d", count)
	}
	algo, err := New(spec.AlgorithmType, props)
	if err != nil {
		return nil, err
	}
	specCopy := spec
	specCopy.ShardingCount = count
	rule := &TableRule{
		LogicTable: spec.LogicTable,
		Auto:       true,
		AutoStrategy: &Strategy{
			Column:    spec.ShardingColumn,
			Algorithm: algo,
		},
		AutoSpec: &specCopy,
	}
	for i := 0; i < count; i++ {
		rule.DataNodes = append(rule.DataNodes, DataNode{
			DataSource: spec.Resources[i%len(spec.Resources)],
			Table:      fmt.Sprintf("%s_%d", spec.LogicTable, i),
		})
	}
	return rule, nil
}

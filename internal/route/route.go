// Package route implements the SQL router (paper Section VI-B): it maps a
// logical statement onto data nodes. Statements whose WHERE clause pins
// the sharding key take the standard route (one or a few nodes); joins
// between binding tables collapse to per-shard pairs; joins between
// unrelated sharded tables fall back to the cartesian route; everything
// else broadcasts.
package route

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
)

// Errors returned by the router.
var (
	ErrNoShardingValue = errors.New("route: INSERT without a sharding key value")
	ErrUpdateSharding  = errors.New("route: updating the sharding key is not supported")
	ErrCrossSource     = errors.New("route: cartesian join spans data sources; bind the tables or co-locate them")
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
// their rule's per-node map (sharding.NodeMaps), so TableMap is read-only.
type Unit struct {
	DataSource string
	TableMap   map[string]string
	// RowIndexes carries, for a multi-row INSERT, which value tuples this
	// unit receives (nil means all).
	RowIndexes []int
}

// Result is the full route result.
type Result struct {
	Kind  Kind
	Units []Unit
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

// Router routes statements against a rule set.
type Router struct {
	rules *sharding.RuleSet
	// AllDataSources lists every known data source for DDL broadcast and
	// broadcast tables.
	allDataSources []string
	// Columns optionally resolves a logic table's column order; INSERT
	// statements without an explicit column list need it to locate the
	// sharding key. The kernel wires its metadata service here.
	Columns func(logicTable string) ([]string, error)

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

// noteKeys reports a routed statement's equality sharding-key values to
// the observer. Range conditions are skipped — a range is not a key.
func (r *Router) noteKeys(table string, conds map[string]sharding.Condition) {
	obs := r.keyObs.Load()
	if obs == nil || len(conds) == 0 {
		return
	}
	for col, c := range conds {
		if c.Ranged {
			continue
		}
		for _, v := range c.Values {
			(*obs)(table, col, v)
		}
	}
}

// New builds a router. allDataSources is the complete data source list
// (used for broadcast routes).
func New(rules *sharding.RuleSet, allDataSources []string) *Router {
	return &Router{rules: rules, allDataSources: allDataSources}
}

// Rules exposes the rule set (read-only).
func (r *Router) Rules() *sharding.RuleSet { return r.rules }

// Route maps a statement to its units. hint optionally carries an
// out-of-band sharding value for hint-based strategies.
func (r *Router) Route(stmt sqlparser.Statement, args []sqltypes.Value, hint *sqltypes.Value) (*Result, error) {
	switch t := stmt.(type) {
	case *sqlparser.SelectStmt:
		return r.routeSelect(t, args, hint)
	case *sqlparser.InsertStmt:
		return r.routeInsert(t, args, hint)
	case *sqlparser.UpdateStmt:
		return r.routeUpdate(t, args, hint)
	case *sqlparser.DeleteStmt:
		return r.routeWhereOnly(t.Table, t.Alias, t.Where, args, hint)
	case *sqlparser.CreateTableStmt:
		return r.routeDDL(t.Table)
	case *sqlparser.DropTableStmt:
		return r.routeDDL(t.Table)
	case *sqlparser.TruncateStmt:
		return r.routeDDL(t.Table)
	case *sqlparser.CreateIndexStmt:
		return r.routeDDL(t.Table)
	default:
		// TCL/XA/SET are handled by the kernel, not the router.
		return nil, fmt.Errorf("route: statement %T is not routable", stmt)
	}
}

// routeDDL fans DDL out to every node of a sharded table, or to the
// default source for unsharded tables (paper: DDL broadcasts).
func (r *Router) routeDDL(table string) (*Result, error) {
	if rule, ok := r.rules.Rule(table); ok {
		return unitsFromNodes(rule, rule.DataNodes, KindBroadcast), nil
	}
	if r.rules.Broadcast[strings.ToLower(table)] {
		res := &Result{Kind: KindBroadcast}
		for _, ds := range r.allDataSources {
			res.Units = append(res.Units, Unit{DataSource: ds, TableMap: map[string]string{}})
		}
		return res, nil
	}
	return r.defaultRoute()
}

func (r *Router) defaultRoute() (*Result, error) {
	if r.rules.DefaultDataSource == "" {
		return nil, fmt.Errorf("%w: no default data source configured", ErrNoDataSource)
	}
	return &Result{Kind: KindDefault, Units: []Unit{{DataSource: r.rules.DefaultDataSource, TableMap: map[string]string{}}}}, nil
}

// tableAliases maps reference names (alias or table name) to logic tables.
type tableAliases map[string]string

func aliasesOf(from []sqlparser.TableRef) tableAliases {
	out := tableAliases{}
	for _, ref := range from {
		out[strings.ToLower(ref.Name)] = strings.ToLower(ref.Name)
		if ref.Alias != "" {
			out[strings.ToLower(ref.Alias)] = strings.ToLower(ref.Name)
		}
	}
	return out
}

func (r *Router) routeSelect(stmt *sqlparser.SelectStmt, args []sqltypes.Value, hint *sqltypes.Value) (*Result, error) {
	tables := sqlparser.TableNames(stmt)
	var shardedTables []string
	for _, t := range tables {
		if r.rules.IsSharded(t) {
			shardedTables = append(shardedTables, t)
		}
	}
	if len(shardedTables) == 0 {
		return r.defaultRoute()
	}
	aliases := aliasesOf(stmt.From)
	// Conditions from WHERE and from all join ON clauses (equality on the
	// sharding key in ON participates in routing).
	conds := extractConditions(stmt.Where, args, aliases)
	for _, ref := range stmt.From {
		if ref.On != nil {
			merge(conds, extractConditions(ref.On, args, aliases))
		}
	}

	primary := shardedTables[0]
	rule, _ := r.rules.Rule(primary)
	primaryConds := condsFor(conds, primary, rule)
	r.noteKeys(primary, primaryConds)
	nodes, err := rule.Route(primaryConds, hint)
	if err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoDataSource, primary)
	}
	kind := KindStandard
	if len(nodes) == len(rule.DataNodes) {
		kind = KindBroadcast
	}

	if len(shardedTables) == 1 {
		return unitsFromNodes(rule, nodes, kind), nil
	}

	// Multiple sharded tables: binding route if all bound, else cartesian.
	if r.rules.AllBound(shardedTables) {
		res := unitsFromNodes(rule, nodes, KindBinding)
		for i := range res.Units {
			// The primary's map is shared; a binding unit maps several
			// tables and owns its copy.
			primaryTable := res.Units[i].TableMap[rule.LogicTable]
			idx := rule.ShardIndex(primaryTable)
			m := make(map[string]string, len(shardedTables))
			m[rule.LogicTable] = primaryTable
			for _, other := range shardedTables[1:] {
				otherRule, _ := r.rules.Rule(other)
				if idx < 0 || idx >= len(otherRule.DataNodes) {
					return nil, fmt.Errorf("route: binding tables %s and %s misaligned", primary, other)
				}
				m[otherRule.LogicTable] = otherRule.DataNodes[idx].Table
			}
			res.Units[i].TableMap = m
		}
		return res, nil
	}
	return r.cartesian(shardedTables, conds, hint)
}

// cartesian enumerates every combination of actual tables that share a
// data source (paper Section VI-B: "Cartesian route").
func (r *Router) cartesian(tables []string, conds map[string]map[string]sharding.Condition, hint *sqltypes.Value) (*Result, error) {
	perTable := make([][]sharding.DataNode, len(tables))
	for i, t := range tables {
		rule, _ := r.rules.Rule(t)
		tableConds := condsFor(conds, t, rule)
		r.noteKeys(t, tableConds)
		nodes, err := rule.Route(tableConds, hint)
		if err != nil {
			return nil, err
		}
		perTable[i] = nodes
	}
	res := &Result{Kind: KindCartesian}
	var build func(i int, ds string, acc map[string]string) error
	build = func(i int, ds string, acc map[string]string) error {
		if i == len(tables) {
			m := make(map[string]string, len(acc))
			for k, v := range acc {
				m[k] = v
			}
			res.Units = append(res.Units, Unit{DataSource: ds, TableMap: m})
			return nil
		}
		rule, _ := r.rules.Rule(tables[i])
		matched := false
		for _, n := range perTable[i] {
			if ds != "" && n.DataSource != ds {
				continue
			}
			matched = true
			acc[rule.LogicTable] = n.Table
			if err := build(i+1, n.DataSource, acc); err != nil {
				return err
			}
			delete(acc, rule.LogicTable)
		}
		if !matched && ds != "" {
			// This combination cannot be satisfied within one source; a
			// real cross-source join would need federation.
			return nil
		}
		return nil
	}
	if err := build(0, "", map[string]string{}); err != nil {
		return nil, err
	}
	if len(res.Units) == 0 {
		return nil, ErrCrossSource
	}
	return res, nil
}

func unitsFromNodes(rule *sharding.TableRule, nodes []sharding.DataNode, kind Kind) *Result {
	res := &Result{Kind: kind, Units: make([]Unit, len(nodes))}
	maps := rule.NodeMaps()
	for i, n := range nodes {
		res.Units[i] = Unit{DataSource: n.DataSource, TableMap: maps.Of(n)}
	}
	return res
}

func (r *Router) routeInsert(stmt *sqlparser.InsertStmt, args []sqltypes.Value, hint *sqltypes.Value) (*Result, error) {
	rule, ok := r.rules.Rule(stmt.Table)
	if !ok {
		if r.rules.Broadcast[strings.ToLower(stmt.Table)] {
			res := &Result{Kind: KindBroadcast}
			for _, ds := range r.allDataSources {
				res.Units = append(res.Units, Unit{DataSource: ds, TableMap: map[string]string{}})
			}
			return res, nil
		}
		return r.defaultRoute()
	}
	cols := rule.ShardingColumns()
	// Locate the sharding columns among the insert columns; a column-less
	// INSERT uses the table's schema order from the metadata service.
	insertCols := stmt.Columns
	if len(insertCols) == 0 && r.Columns != nil {
		resolved, err := r.Columns(stmt.Table)
		if err != nil {
			return nil, fmt.Errorf("route: cannot resolve columns of %s: %w", stmt.Table, err)
		}
		insertCols = resolved
	}
	positions := map[string]int{}
	for i, c := range insertCols {
		positions[strings.ToLower(c)] = i
	}
	type target struct {
		node sharding.DataNode
		rows []int
	}
	order := []string{}
	targets := map[string]*target{}
	env := evalEnv{args: args}
	for rowIdx, row := range stmt.Rows {
		conds := map[string]sharding.Condition{}
		for _, col := range cols {
			pos, ok := positions[col]
			if !ok || pos >= len(row) {
				if hint == nil {
					return nil, fmt.Errorf("%w: table %s needs column %s", ErrNoShardingValue, stmt.Table, col)
				}
				continue
			}
			v, err := env.eval(row[pos])
			if err != nil {
				return nil, err
			}
			conds[col] = sharding.Condition{Values: []sqltypes.Value{v}}
		}
		r.noteKeys(stmt.Table, conds)
		nodes, err := rule.Route(conds, hint)
		if err != nil {
			return nil, err
		}
		if len(nodes) != 1 {
			return nil, fmt.Errorf("%w: row %d of INSERT INTO %s maps to %d nodes",
				ErrNoShardingValue, rowIdx, stmt.Table, len(nodes))
		}
		key := nodes[0].String()
		tg, ok := targets[key]
		if !ok {
			tg = &target{node: nodes[0]}
			targets[key] = tg
			order = append(order, key)
		}
		tg.rows = append(tg.rows, rowIdx)
	}
	res := &Result{Kind: KindStandard}
	maps := rule.NodeMaps()
	for _, key := range order {
		tg := targets[key]
		res.Units = append(res.Units, Unit{
			DataSource: tg.node.DataSource,
			TableMap:   maps.Of(tg.node),
			RowIndexes: tg.rows,
		})
	}
	return res, nil
}

func (r *Router) routeUpdate(stmt *sqlparser.UpdateStmt, args []sqltypes.Value, hint *sqltypes.Value) (*Result, error) {
	if rule, ok := r.rules.Rule(stmt.Table); ok {
		for _, a := range stmt.Set {
			for _, col := range rule.ShardingColumns() {
				if strings.EqualFold(a.Column, col) {
					return nil, fmt.Errorf("%w: %s.%s", ErrUpdateSharding, stmt.Table, col)
				}
			}
		}
	}
	return r.routeWhereOnly(stmt.Table, stmt.Alias, stmt.Where, args, hint)
}

// routeWhereOnly routes single-table DML by its WHERE clause.
func (r *Router) routeWhereOnly(table, alias string, where sqlparser.Expr, args []sqltypes.Value, hint *sqltypes.Value) (*Result, error) {
	rule, ok := r.rules.Rule(table)
	if !ok {
		if r.rules.Broadcast[strings.ToLower(table)] {
			res := &Result{Kind: KindBroadcast}
			for _, ds := range r.allDataSources {
				res.Units = append(res.Units, Unit{DataSource: ds, TableMap: map[string]string{}})
			}
			return res, nil
		}
		return r.defaultRoute()
	}
	aliases := tableAliases{strings.ToLower(table): strings.ToLower(table)}
	if alias != "" {
		aliases[strings.ToLower(alias)] = strings.ToLower(table)
	}
	conds := extractConditions(where, args, aliases)
	tableConds := condsFor(conds, table, rule)
	r.noteKeys(table, tableConds)
	nodes, err := rule.Route(tableConds, hint)
	if err != nil {
		return nil, err
	}
	kind := KindStandard
	if len(nodes) == len(rule.DataNodes) {
		kind = KindBroadcast
	}
	return unitsFromNodes(rule, nodes, kind), nil
}

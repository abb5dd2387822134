package route

import (
	"fmt"
	"strings"

	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
)

// Skeleton is a statement compiled for routing (paper Section VI-B, run
// once per statement): which rules its tables fall under, which route
// strategy joins them, and every comparison that may narrow the route kept
// as a symbolic slot. Binding a set of argument values evaluates only the
// slots' constant operands and asks the sharding algorithms — no AST walk.
// A skeleton is immutable and holds the rule snapshot it was compiled
// against, each of its rules beside the node index compile resolved for
// it: it is valid until the next rule publication.
type Skeleton struct {
	r     *Router
	rules *sharding.RuleSet
	err   error // why the statement cannot be routed; Route returns it

	// tables are the statement's sharded tables in order of appearance;
	// none means the default data source — or, with everywhere, every data
	// source (a broadcast table's DML and DDL).
	tables     []routedTable
	everywhere bool
	allNodes   bool // DDL: every node of tables[0], whatever the arguments
	bound      bool // several sharded tables, all of one binding group
	// keys, for an INSERT into a sharded table, holds per row the value
	// expression of each sharding column (nil where the row has none).
	keys [][]sqlparser.Expr
}

// routedTable is one sharded table of a statement: its rule, the rule's
// node index and the comparisons that narrow its route.
type routedTable struct {
	rule  *sharding.TableRule
	ix    *sharding.NodeIndex
	slots []condSlot
}

// BuildSkeleton compiles a statement for routing against the current rule
// snapshot (Compile).
func (r *Router) BuildSkeleton(stmt sqlparser.Statement) (*Skeleton, bool) {
	return r.Compile(r.rules.Load(), stmt)
}

// Compile compiles a statement for routing against rules, a published
// snapshot. ok is false when the statement cannot be routed at all (TCL,
// an UPDATE of the sharding key, a column-less INSERT whose table metadata
// is unavailable); the skeleton's Route then returns why.
func (r *Router) Compile(rules *sharding.RuleSet, stmt sqlparser.Statement) (*Skeleton, bool) {
	s := &Skeleton{r: r, rules: rules}
	switch t := stmt.(type) {
	case *sqlparser.SelectStmt:
		// Equality on the sharding key in a join's ON clause narrows the
		// route as it does in WHERE.
		slots := narrowing(t.Where, t.From, nil)
		for _, ref := range t.From {
			slots = narrowing(ref.On, t.From, slots)
		}
		var names []string
		for _, ref := range t.From {
			if rule, ok := rules.Rule(ref.Name); ok {
				s.sharded(rule, slots)
				names = append(names, ref.Name)
			}
		}
		s.bound = len(names) > 1 && rules.AllBound(names)
	case *sqlparser.UpdateStmt:
		if rule := s.dml(t.Table, t.Alias, t.Where); rule != nil {
			for _, a := range t.Set {
				for _, col := range rule.NodeIndex().Columns() {
					if strings.EqualFold(a.Column, col) {
						s.err = fmt.Errorf("%w: %s.%s", ErrUpdateSharding, t.Table, col)
					}
				}
			}
		}
	case *sqlparser.DeleteStmt:
		s.dml(t.Table, t.Alias, t.Where)
	case *sqlparser.InsertStmt:
		if s.dml(t.Table, "", nil) != nil {
			s.err = s.insertKeys(t)
		}
	case *sqlparser.CreateTableStmt:
		s.ddl(t.Table)
	case *sqlparser.DropTableStmt:
		s.ddl(t.Table)
	case *sqlparser.TruncateStmt:
		s.ddl(t.Table)
	case *sqlparser.CreateIndexStmt:
		s.ddl(t.Table)
	default:
		// TCL/XA/SET are handled by the kernel, not the router.
		s.err = fmt.Errorf("route: statement %T is not routable", stmt)
	}
	return s, s.err == nil
}

// dml compiles a single-table statement routed by its WHERE clause and
// returns the table's rule. An unsharded table has none: its statement
// goes to the default data source or, for a broadcast table, everywhere.
func (s *Skeleton) dml(table, alias string, where sqlparser.Expr) *sharding.TableRule {
	rule, ok := s.rules.Rule(table)
	if !ok {
		s.everywhere = s.rules.Broadcast[strings.ToLower(table)]
		return nil
	}
	s.sharded(rule, narrowing(where, []sqlparser.TableRef{{Name: table, Alias: alias}}, nil))
	return rule
}

func (s *Skeleton) sharded(rule *sharding.TableRule, slots []condSlot) {
	ix := rule.NodeIndex()
	s.tables = append(s.tables, routedTable{rule: rule, ix: ix, slots: slotsFor(slots, rule.LogicTable, ix.Columns())})
}

// ddl fans DDL out to every node of a sharded table (paper: DDL
// broadcasts).
func (s *Skeleton) ddl(table string) {
	s.allNodes = s.dml(table, "", nil) != nil
}

// insertKeys locates the sharding columns among the insert columns; a
// column-less INSERT uses the table's schema order from the metadata
// service.
func (s *Skeleton) insertKeys(stmt *sqlparser.InsertStmt) error {
	insertCols := stmt.Columns
	if len(insertCols) == 0 && s.r.Columns != nil {
		resolved, err := s.r.Columns(s.tables[0].rule)
		if err != nil {
			return fmt.Errorf("route: cannot resolve columns of %s: %w", stmt.Table, err)
		}
		insertCols = resolved
	}
	cols := s.tables[0].ix.Columns()
	s.keys = make([][]sqlparser.Expr, len(stmt.Rows))
	backing := make([]sqlparser.Expr, len(stmt.Rows)*len(cols))
	for i, row := range stmt.Rows {
		s.keys[i], backing = backing[:len(cols):len(cols)], backing[len(cols):]
		for j, col := range cols {
			for pos, c := range insertCols {
				if strings.EqualFold(c, col) && pos < len(row) {
					s.keys[i][j] = row[pos]
				}
			}
		}
	}
	return nil
}

// Route binds argument values (and the optional out-of-band sharding
// hint) to the skeleton and computes the statement's units.
func (s *Skeleton) Route(args []sqltypes.Value, hint *sqltypes.Value) (*Result, error) {
	switch {
	case s.err != nil:
		return nil, s.err
	case len(s.tables) == 0 && s.everywhere:
		return s.r.everySource(), nil
	case len(s.tables) == 0:
		return s.defaultRoute()
	case s.allNodes:
		t := s.tables[0]
		return unitsFromNodes(t.ix, t.rule.DataNodes, KindBroadcast), nil
	case s.keys != nil:
		return s.routeRows(args, hint)
	}
	primary := &s.tables[0]
	nodes, err := s.nodesOf(0, args, hint)
	if err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoDataSource, primary.rule.LogicTable)
	}
	switch {
	case len(s.tables) == 1:
		kind := KindStandard
		if len(nodes) == len(primary.rule.DataNodes) {
			kind = KindBroadcast
		}
		return unitsFromNodes(primary.ix, nodes, kind), nil
	case s.bound:
		return s.binding(nodes)
	default:
		return s.cartesian(nodes, args, hint)
	}
}

func (s *Skeleton) defaultRoute() (*Result, error) {
	ds := s.rules.DefaultDataSource
	if ds == "" {
		return nil, fmt.Errorf("%w: no default data source configured", ErrNoDataSource)
	}
	return &Result{Kind: KindDefault, Units: []Unit{{DataSource: ds, TableMap: map[string]string{}}}}, nil
}

// nodesOf routes one of the statement's tables by its own conditions,
// bound on the stack for a rule of up to two sharding columns.
func (s *Skeleton) nodesOf(i int, args []sqltypes.Value, hint *sqltypes.Value) ([]sharding.DataNode, error) {
	t := &s.tables[i]
	cols := t.ix.Columns()
	var buf [2]sharding.Condition
	conds := buf[:min(len(cols), len(buf))]
	if len(cols) > len(buf) {
		conds = make([]sharding.Condition, len(cols))
	}
	bindConds(t.slots, args, conds)
	s.r.noteKeys(t.rule.LogicTable, cols, conds)
	return t.ix.Route(conds, hint)
}

// binding pairs each of the primary table's nodes with the same shard of
// every bound table (paper Section VI-B: "binding route").
func (s *Skeleton) binding(nodes []sharding.DataNode) (*Result, error) {
	primary, ix := s.tables[0].rule, s.tables[0].ix
	res := unitsFromNodes(ix, nodes, KindBinding)
	for i := range res.Units {
		// The primary's map is shared; a binding unit maps several tables
		// and owns its copy.
		primaryTable := res.Units[i].TableMap[primary.LogicTable]
		idx := ix.Shard(primaryTable)
		m := make(map[string]string, len(s.tables))
		m[primary.LogicTable] = primaryTable
		for _, other := range s.tables[1:] {
			if idx < 0 || idx >= len(other.rule.DataNodes) {
				return nil, fmt.Errorf("route: binding tables %s and %s misaligned", primary.LogicTable, other.rule.LogicTable)
			}
			m[other.rule.LogicTable] = other.rule.DataNodes[idx].Table
		}
		res.Units[i].TableMap = m
	}
	return res, nil
}

// cartesian enumerates every combination of actual tables that share a
// data source (paper Section VI-B: "Cartesian route"). A combination that
// spans sources is left out: joining it would need federation.
func (s *Skeleton) cartesian(primaryNodes []sharding.DataNode, args []sqltypes.Value, hint *sqltypes.Value) (*Result, error) {
	perTable := make([][]sharding.DataNode, len(s.tables))
	perTable[0] = primaryNodes
	for i := 1; i < len(s.tables); i++ {
		nodes, err := s.nodesOf(i, args, hint)
		if err != nil {
			return nil, err
		}
		perTable[i] = nodes
	}
	res := &Result{Kind: KindCartesian}
	var build func(i int, ds string, acc map[string]string)
	build = func(i int, ds string, acc map[string]string) {
		if i == len(s.tables) {
			m := make(map[string]string, len(acc))
			for k, v := range acc {
				m[k] = v
			}
			res.Units = append(res.Units, Unit{DataSource: ds, TableMap: m})
			return
		}
		logic := s.tables[i].rule.LogicTable
		for _, n := range perTable[i] {
			if ds != "" && n.DataSource != ds {
				continue
			}
			acc[logic] = n.Table
			build(i+1, n.DataSource, acc)
			delete(acc, logic)
		}
	}
	build(0, "", map[string]string{})
	if len(res.Units) == 0 {
		return nil, ErrCrossSource
	}
	return res, nil
}

// routeRows routes an INSERT row by row; each unit receives the rows that
// map to its node, in statement order.
func (s *Skeleton) routeRows(args []sqltypes.Value, hint *sqltypes.Value) (*Result, error) {
	t := &s.tables[0]
	rule, cols := t.rule, t.ix.Columns()
	env := evalEnv{args: args}
	res := &Result{Kind: KindStandard}
	unitOf := map[sharding.DataNode]int{}
	conds := make([]sharding.Condition, len(cols))
	for rowIdx, keys := range s.keys {
		for j, col := range cols {
			conds[j] = sharding.Condition{}
			if keys[j] == nil {
				if hint == nil {
					return nil, fmt.Errorf("%w: table %s needs column %s", ErrNoShardingValue, rule.LogicTable, col)
				}
				continue
			}
			v, err := env.one(keys[j])
			if err != nil {
				return nil, err
			}
			conds[j] = sharding.Condition{Values: v}
		}
		s.r.noteKeys(rule.LogicTable, cols, conds)
		nodes, err := t.ix.Route(conds, hint)
		if err != nil {
			return nil, err
		}
		if len(nodes) != 1 {
			return nil, fmt.Errorf("%w: row %d of INSERT INTO %s maps to %d nodes",
				ErrNoShardingValue, rowIdx, rule.LogicTable, len(nodes))
		}
		u, ok := unitOf[nodes[0]]
		if !ok {
			u = len(res.Units)
			unitOf[nodes[0]] = u
			res.Units = append(res.Units, Unit{DataSource: nodes[0].DataSource, TableMap: t.ix.Of(nodes[0])})
		}
		res.Units[u].RowIndexes = append(res.Units[u].RowIndexes, rowIdx)
	}
	return res, nil
}

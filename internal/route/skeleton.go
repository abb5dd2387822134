package route

import (
	"fmt"
	"maps"
	"slices"
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
	colocated  bool // several sharded tables, each joined on its sharding columns with the same shard of the first (colocate)
	nullable   bool // a sharded table on the NULL-extended side of an outer join
	// keys, for an INSERT into a sharded table, holds per row the value
	// expression of each sharding column (nil where the row has none).
	keys [][]sqlparser.Expr
}

// routedTable is one sharded table of a statement: its rule, the rule's
// node index, its FROM position and the comparisons that narrow its route.
type routedTable struct {
	rule  *sharding.TableRule
	ix    *sharding.NodeIndex
	ref   int
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
		// An inner join's ON narrows the route as WHERE does.
		slots, eqs := narrowing(t.Where, t.From, -1, nil, nil)
		lastRight := 0
		for i, ref := range t.From {
			outer := -1
			switch ref.Join {
			case sqlparser.JoinRight:
				lastRight = i
				fallthrough
			case sqlparser.JoinLeft:
				outer = i
			}
			slots, eqs = narrowing(ref.On, t.From, outer, slots, eqs)
		}
		for i, ref := range t.From {
			if rule, ok := rules.Rule(ref.Name); ok {
				s.sharded(rule, i, slots)
				// A LEFT JOIN's table and every table before a RIGHT JOIN
				// are NULL-extended.
				s.nullable = s.nullable || ref.Join == sqlparser.JoinLeft || i < lastRight
			}
		}
		s.colocated = len(s.tables) > 1 && s.colocate(eqs)
	case *sqlparser.UpdateStmt:
		if rule := s.dml(t.Table, t.Alias, t.Where); rule != nil {
			for _, a := range t.Set {
				for _, col := range rule.NodeIndex().Columns() {
					if strings.EqualFold(a.Column, col) && !identity(a.Value, col, t.Table, t.Alias) {
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

// identity reports whether e names column col of the updated table,
// unqualified or qualified by the table or its alias: SET col = col keeps
// the row on its shard.
func identity(e sqlparser.Expr, col, table, alias string) bool {
	ref, ok := e.(*sqlparser.ColumnRef)
	return ok && strings.EqualFold(ref.Name, col) &&
		(ref.Table == "" || strings.EqualFold(ref.Table, table) || alias != "" && strings.EqualFold(ref.Table, alias))
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
	slots, _ := narrowing(where, []sqlparser.TableRef{{Name: table, Alias: alias}}, -1, nil, nil)
	s.sharded(rule, 0, slots)
	return rule
}

func (s *Skeleton) sharded(rule *sharding.TableRule, ref int, slots []condSlot) {
	ix := rule.NodeIndex()
	s.tables = append(s.tables, routedTable{rule: rule, ix: ix, ref: ref, slots: slotsFor(slots, ref, ix.Columns())})
}

// colocate reports whether a join of several sharded tables is
// co-located: every table is bound to the first (a table is bound to
// itself) and linked to an earlier one by equalities, eqs, between their
// sharding columns, position for position. One pass in FROM order may
// miss a link that an odd order of the tables makes; that only widens the
// route.
func (s *Skeleton) colocate(eqs [][2]colRef) bool {
	for j := 1; j < len(s.tables); j++ {
		t := &s.tables[j]
		cols := t.ix.Columns()
		linked := func(x routedTable) bool {
			xcols := x.ix.Columns()
			if len(cols) == 0 || len(xcols) != len(cols) {
				return false
			}
			for p, col := range cols {
				a, b := colRef{t.ref, col}, colRef{x.ref, xcols[p]}
				if !slices.Contains(eqs, [2]colRef{a, b}) && !slices.Contains(eqs, [2]colRef{b, a}) {
					return false
				}
			}
			return true
		}
		if !s.rules.Bound(s.tables[0].rule.LogicTable, t.rule.LogicTable) || !slices.ContainsFunc(s.tables[:j], linked) {
			return false
		}
	}
	return true
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

// Route binds argument values to the skeleton and computes the
// statement's units. The last parameter is unused; it stays until the
// benchmark's callers, which pass nil, stop passing it.
func (s *Skeleton) Route(args []sqltypes.Value, _ *sqltypes.Value) (*Result, error) {
	res := new(Result)
	if err := s.RouteInto(res, args); err != nil {
		return nil, err
	}
	return res, nil
}

// RouteInto is Route writing the units into res, which the caller owns: a
// caller that is done with one route's units before it binds the next
// routes every statement into one Result.
func (s *Skeleton) RouteInto(res *Result, args []sqltypes.Value) error {
	switch {
	case s.err != nil:
		return s.err
	case len(s.tables) == 0 && s.everywhere:
		s.r.everySource(res)
		return nil
	case len(s.tables) == 0:
		return s.defaultRoute(res)
	case s.allNodes:
		t := s.tables[0]
		unitsFromNodes(res, t.ix, t.rule.DataNodes, KindBroadcast)
		return nil
	case s.keys != nil:
		return s.routeRows(res, args)
	}
	primary := &s.tables[0]
	var buf [4]sharding.DataNode
	nodes, err := s.nodesOf(0, args, buf[:0])
	if err != nil {
		return err
	}
	if len(nodes) == 0 {
		return fmt.Errorf("%w: %s", ErrNoDataSource, primary.rule.LogicTable)
	}
	if len(s.tables) == 1 {
		kind := KindStandard
		if len(nodes) == len(primary.rule.DataNodes) {
			kind = KindBroadcast
		}
		unitsFromNodes(res, primary.ix, nodes, kind)
	} else if err = s.join(res, nodes, args); err != nil {
		return err
	}
	if s.nullable && !s.colocated && len(res.Units) > 1 {
		return fmt.Errorf("%w: a sharded table on the NULL-extended side of an outer join spans %d units", ErrNotColocated, len(res.Units))
	}
	return nil
}

func (s *Skeleton) defaultRoute(res *Result) error {
	ds := s.rules.DefaultDataSource
	if ds == "" {
		return fmt.Errorf("%w: no default data source configured", ErrNoDataSource)
	}
	res.reset(KindDefault, 1)
	res.Units = append(res.Units, Unit{DataSource: ds, TableMap: map[string]string{}})
	return nil
}

// nodesOf routes one of the statement's tables by its own conditions,
// bound on the stack for a rule of up to two sharding columns, and appends
// its nodes to dst.
func (s *Skeleton) nodesOf(i int, args []sqltypes.Value, dst []sharding.DataNode) ([]sharding.DataNode, error) {
	t := &s.tables[i]
	cols := t.ix.Columns()
	var buf [2]sharding.Condition
	conds := buf[:min(len(cols), len(buf))]
	if len(cols) > len(buf) {
		conds = make([]sharding.Condition, len(cols))
	}
	bindConds(t.slots, args, conds)
	s.r.noteKeys(t.rule.LogicTable, cols, conds)
	return t.ix.Route(conds, dst)
}

// join routes a statement over several sharded tables (paper Section
// VI-B): each of the first table's nodes takes, per other table, the same
// shard when the join is co-located (the binding route), and otherwise
// every node that table routes to (the Cartesian route). A unit is one
// data source with one actual table per logic table, so a combination
// that spans sources, or that needs two actual tables of one logic table,
// refuses the route.
func (s *Skeleton) join(res *Result, nodes []sharding.DataNode, args []sqltypes.Value) error {
	res.reset(KindBinding, 0)
	picks := make([][]sharding.DataNode, len(s.tables))
	for i := 1; i < len(s.tables) && !s.colocated; i++ {
		res.Kind = KindCartesian
		var err error
		if picks[i], err = s.nodesOf(i, args, nil); err != nil {
			return err
		}
	}
	first := s.tables[0]
	for _, n := range nodes {
		shard := first.ix.Shard(n)
		units := []Unit{{DataSource: n.DataSource, TableMap: map[string]string{first.rule.LogicTable: n.Table}}}
		for i, t := range s.tables[1:] {
			if s.colocated {
				if shard < 0 || shard >= len(t.rule.DataNodes) {
					return fmt.Errorf("%w: %s has no shard %d", ErrNotColocated, t.rule.LogicTable, shard)
				}
				picks[i+1] = t.rule.DataNodes[shard : shard+1]
			}
			var next []Unit
			for _, u := range units {
				for _, p := range picks[i+1] {
					logic := t.rule.LogicTable
					if have, ok := u.TableMap[logic]; p.DataSource != n.DataSource || ok && have != p.Table {
						return fmt.Errorf("%w: one unit would join %s with %s", ErrNotColocated, n, p)
					}
					m := maps.Clone(u.TableMap)
					m[logic] = p.Table
					next = append(next, Unit{DataSource: n.DataSource, TableMap: m})
				}
			}
			units = next
		}
		res.Units = append(res.Units, units...)
	}
	return nil
}

// routeRows routes an INSERT row by row; each unit receives the rows that
// map to its node, in statement order.
func (s *Skeleton) routeRows(res *Result, args []sqltypes.Value) error {
	t := &s.tables[0]
	rule, cols := t.rule, t.ix.Columns()
	env := evalEnv{args: args}
	res.reset(KindStandard, 0)
	unitOf := map[sharding.DataNode]int{}
	conds := make([]sharding.Condition, len(cols))
	var buf [1]sharding.DataNode
	for rowIdx, keys := range s.keys {
		for j, col := range cols {
			if keys[j] == nil {
				return fmt.Errorf("%w: table %s needs column %s", ErrNoShardingValue, rule.LogicTable, col)
			}
			v, err := env.one(keys[j])
			if err != nil {
				return err
			}
			conds[j] = sharding.Condition{Values: v}
		}
		s.r.noteKeys(rule.LogicTable, cols, conds)
		nodes, err := t.ix.Route(conds, buf[:0])
		if err != nil {
			return err
		}
		if len(nodes) != 1 {
			return fmt.Errorf("%w: row %d of INSERT INTO %s maps to %d nodes",
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
	return nil
}

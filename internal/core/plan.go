package core

import (
	"shardingsphere/internal/rewrite"
	"shardingsphere/internal/route"
	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/telemetry"
)

// plan is one compiled statement: the parsed AST, its route skeleton and
// its rewrite template. Executing it binds argument values to the two
// (paper Sections VI-B and VI-C run once per statement, then bound). A
// plan is never mutated after compile and may be shared across sessions;
// the plan cache serves it only under the rule snapshot it was compiled
// against, until the next publication (DDL, a rule change, a
// configuration push).
//
// Every statement is executed through compile and run. What differs is
// only whether the compiled value is kept: the plan cache keeps a shape's
// plan from its third sight, and executeStmt compiles for one execution.
type plan struct {
	stmt sqlparser.Statement
	sel  *sqlparser.SelectStmt // non-nil when stmt is a SELECT

	route   *route.Skeleton
	rewrite *rewrite.Template
}

// compile is the one compile function: it routes against rules, the
// snapshot its caller loaded. A sharded table of a DML statement that the
// catalog has no definition of is learned first (Definition), and the
// statement routes against the snapshot that holds it (a kept plan keeps
// its caller's older stamp, so the next execution compiles it again). ok
// is false when the statement's route does not compile, or a definition
// could not be read and the values route on their own form; the plan
// still runs, and reports why.
func (k *Kernel) compile(rules *sharding.RuleSet, stmt sqlparser.Statement) (p *plan, ok bool) {
	p = &plan{stmt: stmt}
	p.sel, _ = stmt.(*sqlparser.SelectStmt)
	p.rewrite, _ = rewrite.NewTemplate(stmt, sqlparser.TableNames(stmt)...)
	p.route, ok = k.router.Compile(rules, stmt)
	if undefined := p.route.Undefined(); undefined != nil && stmt.StatementType() != sqlparser.StmtDDL {
		for _, table := range undefined {
			if _, err := k.Definition(table); err != nil {
				return p, false
			}
		}
		p.route, ok = k.router.Compile(k.Rules(), stmt)
	}
	return p, ok
}

// buildPlan compiles a normalized shape for the plan cache against rules,
// the snapshot the caller loaded and stamps the plan with. Once the
// shape's plan is kept it runs once per snapshot (under the shape entry's
// build lock); a parse error here means the caller re-parses the original
// text so the error carries it.
//
// Only the parse is kept for a statement whose compiled value belongs to
// one execution: a feature's transformer (encrypt, shadow) or the key
// generator rewrites it each time, a table-less SELECT is not routed, and
// a route that does not compile (an UPDATE of the sharding key; a table
// definition that could not be read) is compiled again by each execution.
func buildPlan(k *Kernel, rules *sharding.RuleSet, key string) (*plan, error) {
	stmt, err := sqlparser.Parse(key)
	if err != nil {
		return nil, err
	}
	perExecution := k.hasTransformers
	switch t := stmt.(type) {
	case *sqlparser.InsertStmt:
		perExecution = perExecution || generatesKey(rules, t) != nil
	case *sqlparser.SelectStmt:
		perExecution = perExecution || len(t.From) == 0
	}
	if !perExecution {
		if p, ok := k.compile(rules, stmt); ok {
			return p, nil
		}
	}
	return &plan{stmt: stmt}, nil
}

// executePlan runs a shape's kept plan with bound argument values.
func (s *Session) executePlan(p *plan, args []sqltypes.Value) (*Result, error) {
	s.tr.Mark(telemetry.StagePlanCache)
	if p.route == nil {
		return s.executeStmt(p.stmt, args)
	}
	return s.run(p, args, 0)
}

// bind routes and rewrites a compiled statement for one set of argument
// values: the units an execution sends.
func (s *Session) bind(p *plan, args []sqltypes.Value) (*rewrite.Result, error) {
	if err := p.route.RouteInto(&s.rt, args); err != nil {
		return nil, err
	}
	s.tr.Mark(telemetry.StageRoute)
	if err := p.rewrite.RewriteInto(&s.rw, &s.rt, args, s.k.dialectOf); err != nil {
		return nil, err
	}
	s.tr.Mark(telemetry.StageRewrite)
	return &s.rw, nil
}

// run is the one execute path: bind, then send the units. genKey is the
// last key the key generator added to an INSERT (0 when none).
func (s *Session) run(p *plan, args []sqltypes.Value, genKey int64) (*Result, error) {
	rw, err := s.bind(p, args)
	if err != nil {
		return nil, err
	}
	return s.runUnits(p.stmt, p.sel, rw, genKey)
}

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
// it is valid until the next rule publication (DDL, a rule change, a
// configuration push).
//
// Every statement is executed through compile and run. What differs is
// only whether the compiled value is kept: the plan cache keeps a shape's
// plan, and ExecuteStmt compiles for one execution.
type plan struct {
	stmt sqlparser.Statement
	sel  *sqlparser.SelectStmt // non-nil when stmt is a SELECT

	route   *route.Skeleton
	rewrite *rewrite.Template

	// keyArgs is the key's number of ?s when the key is its own normal form
	// (a text spelled as the key binds its arguments as they are), else -1.
	keyArgs   int
	forUpdate bool
}

// compile is the one compile function: it routes against rules, the
// snapshot its caller loaded. ok is false when the statement's route does
// not compile; the plan still runs, and reports why.
func (k *Kernel) compile(rules *sharding.RuleSet, stmt sqlparser.Statement) (p *plan, ok bool) {
	p = &plan{stmt: stmt}
	p.sel, _ = stmt.(*sqlparser.SelectStmt)
	p.route, ok = k.router.Compile(rules, stmt)
	p.rewrite, _ = rewrite.NewTemplate(stmt, sqlparser.TableNames(stmt)...)
	return p, ok
}

// buildPlan compiles a normalized shape for the plan cache against the
// rule snapshot it loads once. It runs once per shape and plan epoch
// (under the shape entry's build lock, after the epoch was read); a parse
// error here means the caller re-parses the original text so the error
// carries it.
//
// Only the parse is kept for a statement whose compiled value belongs to
// one execution: a feature's transformer (encrypt, shadow) or the key
// generator rewrites it each time, a table-less SELECT is not routed, and
// a route that does not compile (an UPDATE of the sharding key; table
// metadata that could not be read) is retried by the next execution.
func buildPlan(k *Kernel, sql string, norm *sqlparser.Normalized) (*plan, error) {
	stmt, err := sqlparser.Parse(norm.Key)
	if err != nil {
		return nil, err
	}
	rules := k.Rules()
	perExecution := k.hasTransformers
	switch t := stmt.(type) {
	case *sqlparser.InsertStmt:
		perExecution = perExecution || generatesKey(rules, t) != nil
	case *sqlparser.SelectStmt:
		perExecution = perExecution || len(t.From) == 0
	}
	if !perExecution {
		if p, ok := k.compile(rules, stmt); ok {
			return p.keyedBy(sql, norm), nil
		}
	}
	return (&plan{stmt: stmt}).keyedBy(sql, norm), nil
}

// keyedBy records whether norm's key is its own normal form. A key that
// normalizes to itself lifted no literal, so its slot i reads argument i.
// The key is normalized again only when sql, the text norm came from, is
// spelled otherwise.
func (p *plan) keyedBy(sql string, norm *sqlparser.Normalized) *plan {
	p.keyArgs = -1
	if key := norm.Key; sql != key {
		if norm, _ = sqlparser.Normalize(key); norm == nil || norm.Key != key {
			return p
		}
	}
	p.keyArgs, p.forUpdate = len(norm.Args), norm.ForUpdate
	return p
}

// executePlan runs a shape's kept plan with bound argument values.
func (s *Session) executePlan(p *plan, args []sqltypes.Value) (*Result, error) {
	s.tr.Mark(telemetry.StagePlanCache)
	if p.route == nil {
		return s.ExecuteStmt(p.stmt, args)
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

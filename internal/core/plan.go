package core

import (
	"shardingsphere/internal/rewrite"
	"shardingsphere/internal/route"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/telemetry"
)

// plan is one compiled statement shape: the parsed AST plus, for shapes the
// fast path serves, the precomputed route skeleton and rewrite template.
// Plans are shared across sessions and never mutated after buildPlan; every
// pipeline stage that needs to change the AST clones it first.
type plan struct {
	stmt sqlparser.Statement
	sel  *sqlparser.SelectStmt // non-nil when stmt is a SELECT

	// fast marks shapes executed without any AST walk: bind args → skeleton
	// route → template splice, one unit or fifty. Everything else replays
	// the generic pipeline on the cached AST (still zero parser invocations).
	fast       bool
	skel       *route.Skeleton
	tmpl       *rewrite.Template
	logicTable string // rule's LogicTable key for TableMap lookups ("" when unsharded)
}

// buildPlan compiles a normalized shape into a plan. It runs once per shape
// and plan epoch (under the shape entry's build lock); a parse error here
// means the caller re-parses the original text so the error carries it.
func buildPlan(k *Kernel, norm *sqlparser.Normalized) (*plan, error) {
	stmt, err := sqlparser.Parse(norm.Key)
	if err != nil {
		return nil, err
	}
	p := &plan{stmt: stmt}
	p.sel, _ = stmt.(*sqlparser.SelectStmt)

	// Fast-path eligibility. Statement transformers (encrypt, shadow) may
	// rewrite the AST per execution, so their presence keeps every shape on
	// the generic pipeline.
	if k.hasTransformers {
		return p, nil
	}
	var table string // logic table as written in the statement
	switch t := stmt.(type) {
	case *sqlparser.SelectStmt:
		if len(t.From) != 1 {
			return p, nil
		}
		table = t.From[0].Name
	case *sqlparser.UpdateStmt:
		table = t.Table
	case *sqlparser.DeleteStmt:
		table = t.Table
	default:
		return p, nil
	}
	skel, ok := k.router.BuildSkeleton(stmt)
	if !ok {
		return p, nil
	}
	tmpl, ok := rewrite.NewTemplate(stmt, table)
	if !ok {
		return p, nil
	}
	if rule, ok := k.rules.Rule(table); ok {
		p.logicTable = rule.LogicTable
	}
	p.fast, p.skel, p.tmpl = true, skel, tmpl
	return p, nil
}

// executePlan runs a cached plan with bound argument values. Fast shapes
// route through the skeleton and splice the rewrite template; everything
// else replays the generic pipeline on the cached AST. The fast path
// records one combined plan_cache span (normalize + lookup + route +
// render) instead of separate route/rewrite marks, keeping the hot path
// at a handful of clock reads.
func (s *Session) executePlan(p *plan, args []sqltypes.Value) (*Result, error) {
	if !p.fast {
		s.tr.Mark(telemetry.StagePlanCache)
		return s.ExecuteStmt(p.stmt, args)
	}
	rt, err := p.skel.Route(args, s.hint)
	if err != nil {
		return nil, err
	}
	rw, templated, err := p.tmpl.Rewrite(rt, p.logicTable, args, s.k.dialectOf)
	if err != nil {
		return nil, err
	}
	if !templated {
		// Multi-node pagination with an offset: the node LIMIT is
		// offset+count, so the text depends on the bound values.
		if rw, err = s.k.rewriter.Rewrite(p.stmt, rt, args); err != nil {
			return nil, err
		}
	}
	s.tr.Mark(telemetry.StagePlanCache)
	return s.runUnits(p.stmt, p.sel, rw, 0)
}

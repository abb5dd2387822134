// Package baseline builds the comparison systems the experiments need
// (see DESIGN.md's substitution table):
//
// NaiveKernel — a sharding middleware *without* the paper's intelligent
// SQL engine: reads, updates and deletes fan out to every data node (as
// string-pattern middlewares that cannot exploit sharding conditions do),
// no join is co-located, so every join takes the Cartesian route (and is
// refused unless its shards share one data source), and the per-query
// connection budget is one. Inserts still place rows correctly (any
// middleware must put each row somewhere). Identical correctness, none of
// the routing wins — the gap between it and the real kernel isolates the
// contribution of paper Sections VI-B through VI-E.
//
// NewSingleNode — "MS"/"PG" in the paper's tables: one database instance
// holding all data.
package baseline

import (
	"shardingsphere/internal/core"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
)

// blindRouting hides WHERE/ON conditions from the router by wrapping them
// as "(cond) OR FALSE": the router cannot narrow across an OR (any branch
// might match anywhere) nor co-locate a join on an equality beneath one,
// while evaluation semantics are unchanged —
// x OR FALSE ≡ x under SQL three-valued logic. INSERTs pass through
// untouched so rows still land on their own shard.
type blindRouting struct{}

func (blindRouting) Name() string { return "naive-blind-routing" }

func orFalse(e sqlparser.Expr) sqlparser.Expr {
	if e == nil {
		return nil
	}
	return &sqlparser.BinaryExpr{
		Op: sqlparser.OpOr,
		L:  e,
		R:  &sqlparser.Literal{Val: sqltypes.NewBool(false)},
	}
}

// TransformStatement implements the kernel feature hook.
func (blindRouting) TransformStatement(stmt sqlparser.Statement, args []sqltypes.Value) (sqlparser.Statement, []sqltypes.Value, error) {
	switch t := stmt.(type) {
	case *sqlparser.SelectStmt:
		if t.Where == nil && !hasON(t) {
			return stmt, args, nil
		}
		clone := sqlparser.CloneStatement(t).(*sqlparser.SelectStmt)
		clone.Where = orFalse(clone.Where)
		for i := range clone.From {
			clone.From[i].On = orFalse(clone.From[i].On)
		}
		return clone, args, nil
	case *sqlparser.UpdateStmt:
		if t.Where == nil {
			return stmt, args, nil
		}
		clone := sqlparser.CloneStatement(t).(*sqlparser.UpdateStmt)
		clone.Where = orFalse(clone.Where)
		return clone, args, nil
	case *sqlparser.DeleteStmt:
		if t.Where == nil {
			return stmt, args, nil
		}
		clone := sqlparser.CloneStatement(t).(*sqlparser.DeleteStmt)
		clone.Where = orFalse(clone.Where)
		return clone, args, nil
	default:
		return stmt, args, nil
	}
}

func hasON(sel *sqlparser.SelectStmt) bool {
	for _, ref := range sel.From {
		if ref.On != nil {
			return true
		}
	}
	return false
}

// NaiveKernel builds the naive-middleware comparator over the given
// sources and (real) rules.
func NaiveKernel(rules *sharding.RuleSet, sources map[string]*resource.DataSource) (*core.Kernel, error) {
	return core.New(core.Config{
		Rules:    rules,
		Sources:  sources,
		MaxCon:   1,
		Features: []core.Feature{blindRouting{}},
	})
}

// NewSingleNode builds the single-instance baseline: one embedded engine
// behind a kernel with no sharding rules, standing in for plain MySQL or
// PostgreSQL.
func NewSingleNode(name string, dialect sqlparser.Dialect) (*core.Kernel, *storage.Engine, error) {
	engine := storage.NewEngine(name)
	sources := map[string]*resource.DataSource{
		name: resource.NewEmbedded(engine, &resource.Options{Dialect: dialect}),
	}
	k, err := core.New(core.Config{Sources: sources})
	if err != nil {
		return nil, nil, err
	}
	return k, engine, nil
}

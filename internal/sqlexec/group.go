package sqlexec

import (
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
)

// aggState accumulates one aggregate function over a group.
type aggState struct {
	fn       string
	star     bool
	distinct bool
	arg      sqlparser.Expr

	count   int64
	sumI    int64
	sumF    float64
	isFloat bool
	hasMin  bool
	min     sqltypes.Value
	max     sqltypes.Value
	seen    map[string]struct{}
}

func (st *aggState) init(f *sqlparser.FuncExpr) {
	*st = aggState{fn: f.Name, star: f.Star, distinct: f.Distinct}
	if len(f.Args) > 0 {
		st.arg = f.Args[0]
	}
	if f.Distinct {
		st.seen = map[string]struct{}{}
	}
}

func (st *aggState) update(env *rowEnv) error {
	if st.star {
		st.count++
		return nil
	}
	v, err := env.eval(st.arg)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	if st.distinct {
		k := hashKey(v)
		if _, dup := st.seen[k]; dup {
			return nil
		}
		st.seen[k] = struct{}{}
	}
	st.count++
	switch st.fn {
	case "SUM", "AVG":
		if v.Kind == sqltypes.KindFloat || st.isFloat {
			if !st.isFloat {
				st.sumF = float64(st.sumI)
				st.isFloat = true
			}
			st.sumF += v.AsFloat()
		} else {
			st.sumI += v.AsInt()
		}
	case "MIN":
		if !st.hasMin || sqltypes.Compare(v, st.min) < 0 {
			st.min = v
		}
		st.hasMin = true
	case "MAX":
		if !st.hasMin || sqltypes.Compare(v, st.max) > 0 {
			st.max = v
		}
		st.hasMin = true
	}
	return nil
}

func (st *aggState) result() sqltypes.Value {
	switch st.fn {
	case "COUNT":
		return sqltypes.NewInt(st.count)
	case "SUM":
		if st.count == 0 {
			return sqltypes.Null
		}
		if st.isFloat {
			return sqltypes.NewFloat(st.sumF)
		}
		return sqltypes.NewInt(st.sumI)
	case "AVG":
		if st.count == 0 {
			return sqltypes.Null
		}
		if st.isFloat {
			return sqltypes.NewFloat(st.sumF / float64(st.count))
		}
		return sqltypes.NewFloat(float64(st.sumI) / float64(st.count))
	case "MIN":
		if !st.hasMin {
			return sqltypes.Null
		}
		return st.min
	case "MAX":
		if !st.hasMin {
			return sqltypes.Null
		}
		return st.max
	default:
		return sqltypes.Null
	}
}

// groupAcc is one group's accumulation: the first source row (for the
// non-aggregate output expressions) and one state per aggregate.
type groupAcc struct {
	first  sqltypes.Row
	states []aggState
}

func (o *output) newGroup(first sqltypes.Row) *groupAcc {
	g := &groupAcc{first: first, states: make([]aggState, len(o.aggs))}
	for i, f := range o.aggs {
		g.states[i].init(f)
	}
	return g
}

// group implements hash aggregation: rows are bucketed by the GROUP BY
// key, aggregates accumulate per bucket, and each bucket emits one output
// row (filtered by HAVING, ordered by ORDER BY). Without GROUP BY there is
// one bucket and no hashing.
func (o *output) group(env *rowEnv, rows []sqltypes.Row) (*Result, error) {
	stmt := o.stmt
	var groups []*groupAcc
	if len(o.groupBy) == 0 {
		// A global aggregate over zero rows still yields one group.
		first := nullRow(envWidth(env.tables))
		if len(rows) > 0 {
			first = rows[0]
		}
		g := o.newGroup(first)
		for _, r := range rows {
			env.row = r
			for i := range g.states {
				if err := g.states[i].update(env); err != nil {
					return nil, err
				}
			}
		}
		groups = []*groupAcc{g}
	} else {
		byKey := map[string]*groupAcc{}
		var key []byte // appendRowKey's encoding of the row's GROUP BY values
		for _, r := range rows {
			env.row = r
			key = key[:0]
			for _, ge := range o.groupBy {
				v, err := env.eval(ge)
				if err != nil {
					return nil, err
				}
				key = appendValueKey(key, v)
			}
			g, ok := byKey[string(key)]
			if !ok {
				g = o.newGroup(r)
				byKey[string(key)] = g
				groups = append(groups, g)
			}
			for i := range g.states {
				if err := g.states[i].update(env); err != nil {
					return nil, err
				}
			}
		}
	}

	res := &Result{Columns: o.names}
	var keyRows []sqltypes.Row // each row's ORDER BY keys
	aggVals := make([]sqltypes.Value, len(o.aggs))
	env.aggOf, env.aggVals = o.aggOf, aggVals
	for _, g := range groups {
		env.row = g.first
		for i := range g.states {
			aggVals[i] = g.states[i].result()
		}
		if stmt.Having != nil {
			v, err := env.eval(stmt.Having)
			if err != nil {
				return nil, err
			}
			if !v.Bool() {
				continue
			}
		}
		out := make(sqltypes.Row, len(o.items))
		for i := range o.items {
			v, err := env.eval(o.items[i].Expr)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		if len(o.order) > 0 {
			var keys sqltypes.Row
			if !o.keysInOutput {
				keys = make(sqltypes.Row, len(o.order))
			}
			keys, err := o.sortKeys(env, out, keys)
			if err != nil {
				return nil, err
			}
			keyRows = append(keyRows, keys)
		}
		res.Rows = append(res.Rows, out)
	}
	if len(o.order) > 0 {
		o.sort(res.Rows, keyRows)
	}
	return res, nil
}

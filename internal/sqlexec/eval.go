// Package sqlexec is the per-node query processor: it executes parsed SQL
// statements against one storage.Engine, turning each engine into a small
// SQL database. Together with the storage engine it is the stand-in for the
// paper's MySQL/PostgreSQL data sources; the sharding kernel talks to it
// through connections exactly as ShardingSphere talks to real databases
// through JDBC.
package sqlexec

import (
	"errors"
	"fmt"

	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
)

// Errors surfaced by the query processor.
var (
	ErrUnknownColumn   = errors.New("sqlexec: unknown column")
	ErrAmbiguousColumn = errors.New("sqlexec: ambiguous column")
	ErrBadArgCount     = errors.New("sqlexec: wrong number of bind arguments")
	ErrBadXID          = errors.New("sqlexec: an XA verb's xid argument must be a non-empty string")
	ErrInTransaction   = errors.New("sqlexec: already in a transaction")
	ErrNoTransaction   = errors.New("sqlexec: no transaction is open")
	ErrNoSavepoint     = errors.New("sqlexec: no such savepoint")
	ErrTableList       = errors.New("sqlexec: not runnable over a table list")
)

// tableCols binds one FROM table's columns into the row environment: the
// table's own schema is the binding, so nothing is built per statement or
// per execution beyond this header.
type tableCols struct {
	quals  []string // names a column qualifier may use: table name, then alias
	schema sqltypes.Schema
	base   int // position of the table's first column in the environment row
}

func (t *tableCols) qualifiedBy(name string) bool {
	for _, q := range t.quals {
		if equalFold(q, name) {
			return true
		}
	}
	return false
}

// envWidth is the number of columns the tables contribute to a row.
func envWidth(tables []tableCols) int {
	n := 0
	for i := range tables {
		n += len(tables[i].schema)
	}
	return n
}

// rowEnv is the evaluation environment: the tables whose columns make up
// the current row, plus bind arguments and (after grouping) the group's
// aggregate results.
type rowEnv struct {
	tables []tableCols
	row    sqltypes.Row
	args   []sqltypes.Value
	// aggOf maps every aggregate call of the statement to its slot in
	// aggVals; both are set only while a group's output is evaluated.
	aggOf   map[*sqlparser.FuncExpr]int
	aggVals []sqltypes.Value
	ser     *sqlparser.Serializer
}

// lookup resolves a column reference to its position.
func (env *rowEnv) lookup(ref *sqlparser.ColumnRef) (int, error) {
	found := -1
	for ti := range env.tables {
		t := &env.tables[ti]
		if ref.Table != "" && !t.qualifiedBy(ref.Table) {
			continue
		}
		for i := range t.schema {
			if !equalFold(t.schema[i].Name, ref.Name) {
				continue
			}
			if found >= 0 {
				return -1, fmt.Errorf("%w: %s", ErrAmbiguousColumn, ref.Name)
			}
			found = t.base + i
		}
	}
	if found < 0 {
		return -1, fmt.Errorf("%w: %s", ErrUnknownColumn, refString(ref))
	}
	return found, nil
}

func refString(ref *sqlparser.ColumnRef) string {
	if ref.Table != "" {
		return ref.Table + "." + ref.Name
	}
	return ref.Name
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if ca >= 'A' && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if cb >= 'A' && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// eval evaluates an expression in the environment.
func (env *rowEnv) eval(e sqlparser.Expr) (sqltypes.Value, error) {
	switch t := e.(type) {
	case *sqlparser.Literal:
		return t.Val, nil
	case *sqlparser.Placeholder:
		if t.Index >= len(env.args) {
			return sqltypes.Null, fmt.Errorf("%w: need arg %d, have %d", ErrBadArgCount, t.Index+1, len(env.args))
		}
		return env.args[t.Index], nil
	case *sqlparser.ColumnRef:
		i, err := env.lookup(t)
		if err != nil {
			return sqltypes.Null, err
		}
		return env.row[i], nil
	case *sqlparser.BinaryExpr:
		return env.evalBinary(t)
	case *sqlparser.UnaryExpr:
		v, err := env.eval(t.E)
		if err != nil {
			return sqltypes.Null, err
		}
		if t.Op == sqlparser.OpNot {
			if v.IsNull() {
				return sqltypes.Null, nil
			}
			return sqltypes.NewBool(!v.Bool()), nil
		}
		switch v.Kind {
		case sqltypes.KindInt:
			return sqltypes.NewInt(-v.I), nil
		case sqltypes.KindFloat:
			return sqltypes.NewFloat(-v.F), nil
		case sqltypes.KindNull:
			return sqltypes.Null, nil
		default:
			return sqltypes.NewFloat(-v.AsFloat()), nil
		}
	case *sqlparser.InExpr:
		v, err := env.eval(t.E)
		if err != nil {
			return sqltypes.Null, err
		}
		if v.IsNull() {
			return sqltypes.Null, nil
		}
		for _, item := range t.List {
			iv, err := env.eval(item)
			if err != nil {
				return sqltypes.Null, err
			}
			if sqltypes.Equal(v, iv) {
				return sqltypes.NewBool(!t.Not), nil
			}
		}
		return sqltypes.NewBool(t.Not), nil
	case *sqlparser.BetweenExpr:
		v, err := env.eval(t.E)
		if err != nil {
			return sqltypes.Null, err
		}
		lo, err := env.eval(t.Lo)
		if err != nil {
			return sqltypes.Null, err
		}
		hi, err := env.eval(t.Hi)
		if err != nil {
			return sqltypes.Null, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return sqltypes.Null, nil
		}
		in := sqltypes.Compare(v, lo) >= 0 && sqltypes.Compare(v, hi) <= 0
		return sqltypes.NewBool(in != t.Not), nil
	case *sqlparser.LikeExpr:
		v, err := env.eval(t.E)
		if err != nil {
			return sqltypes.Null, err
		}
		p, err := env.eval(t.Pattern)
		if err != nil {
			return sqltypes.Null, err
		}
		if v.IsNull() || p.IsNull() {
			return sqltypes.Null, nil
		}
		m := likeMatch(v.AsString(), p.AsString())
		return sqltypes.NewBool(m != t.Not), nil
	case *sqlparser.IsNullExpr:
		v, err := env.eval(t.E)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewBool(v.IsNull() != t.Not), nil
	case *sqlparser.FuncExpr:
		if t.IsAggregate() {
			// Post-aggregation environments carry the group's aggregate
			// results (set up by the group executor).
			if i, ok := env.aggOf[t]; ok && env.aggVals != nil {
				return env.aggVals[i], nil
			}
			return sqltypes.Null, fmt.Errorf("sqlexec: aggregate %s used outside grouping context", t.Name)
		}
		return env.evalScalarFunc(t)
	case *sqlparser.CaseExpr:
		if t.Operand != nil {
			op, err := env.eval(t.Operand)
			if err != nil {
				return sqltypes.Null, err
			}
			for _, w := range t.Whens {
				wv, err := env.eval(w.When)
				if err != nil {
					return sqltypes.Null, err
				}
				if sqltypes.Equal(op, wv) {
					return env.eval(w.Then)
				}
			}
		} else {
			for _, w := range t.Whens {
				wv, err := env.eval(w.When)
				if err != nil {
					return sqltypes.Null, err
				}
				if wv.Bool() {
					return env.eval(w.Then)
				}
			}
		}
		if t.Else != nil {
			return env.eval(t.Else)
		}
		return sqltypes.Null, nil
	default:
		return sqltypes.Null, fmt.Errorf("sqlexec: unsupported expression %T", e)
	}
}

func (env *rowEnv) evalBinary(t *sqlparser.BinaryExpr) (sqltypes.Value, error) {
	// AND/OR short-circuit with three-valued logic.
	switch t.Op {
	case sqlparser.OpAnd:
		l, err := env.eval(t.L)
		if err != nil {
			return sqltypes.Null, err
		}
		if !l.IsNull() && !l.Bool() {
			return sqltypes.NewBool(false), nil
		}
		r, err := env.eval(t.R)
		if err != nil {
			return sqltypes.Null, err
		}
		if !r.IsNull() && !r.Bool() {
			return sqltypes.NewBool(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool(true), nil
	case sqlparser.OpOr:
		l, err := env.eval(t.L)
		if err != nil {
			return sqltypes.Null, err
		}
		if !l.IsNull() && l.Bool() {
			return sqltypes.NewBool(true), nil
		}
		r, err := env.eval(t.R)
		if err != nil {
			return sqltypes.Null, err
		}
		if !r.IsNull() && r.Bool() {
			return sqltypes.NewBool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool(false), nil
	}
	l, err := env.eval(t.L)
	if err != nil {
		return sqltypes.Null, err
	}
	r, err := env.eval(t.R)
	if err != nil {
		return sqltypes.Null, err
	}
	switch t.Op {
	case sqlparser.OpAdd:
		return sqltypes.Add(l, r), nil
	case sqlparser.OpSub:
		return sqltypes.Sub(l, r), nil
	case sqlparser.OpMul:
		return sqltypes.Mul(l, r), nil
	case sqlparser.OpDiv:
		return sqltypes.Div(l, r), nil
	case sqlparser.OpMod:
		return sqltypes.Mod(l, r), nil
	case sqlparser.OpConcat:
		if l.IsNull() || r.IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewString(l.AsString() + r.AsString()), nil
	}
	if l.IsNull() || r.IsNull() {
		return sqltypes.Null, nil
	}
	c := sqltypes.Compare(l, r)
	var ok bool
	switch t.Op {
	case sqlparser.OpEQ:
		ok = c == 0
	case sqlparser.OpNE:
		ok = c != 0
	case sqlparser.OpLT:
		ok = c < 0
	case sqlparser.OpLE:
		ok = c <= 0
	case sqlparser.OpGT:
		ok = c > 0
	case sqlparser.OpGE:
		ok = c >= 0
	default:
		return sqltypes.Null, fmt.Errorf("sqlexec: unsupported operator %v", t.Op)
	}
	return sqltypes.NewBool(ok), nil
}

// evalScalarFunc evaluates the small set of scalar functions the
// benchmarks and examples use.
func (env *rowEnv) evalScalarFunc(t *sqlparser.FuncExpr) (sqltypes.Value, error) {
	args := make([]sqltypes.Value, len(t.Args))
	for i, a := range t.Args {
		v, err := env.eval(a)
		if err != nil {
			return sqltypes.Null, err
		}
		args[i] = v
	}
	switch t.Name {
	case "ABS":
		if len(args) != 1 {
			return sqltypes.Null, fmt.Errorf("sqlexec: ABS takes 1 argument")
		}
		v := args[0]
		switch v.Kind {
		case sqltypes.KindInt:
			if v.I < 0 {
				return sqltypes.NewInt(-v.I), nil
			}
			return v, nil
		case sqltypes.KindFloat:
			if v.F < 0 {
				return sqltypes.NewFloat(-v.F), nil
			}
			return v, nil
		default:
			return v, nil
		}
	case "LENGTH":
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewInt(int64(len(args[0].AsString()))), nil
	case "UPPER":
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewString(upperASCII(args[0].AsString())), nil
	case "LOWER":
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewString(lowerASCII(args[0].AsString())), nil
	case "COALESCE":
		for _, v := range args {
			if !v.IsNull() {
				return v, nil
			}
		}
		return sqltypes.Null, nil
	case "CONCAT":
		s := ""
		for _, v := range args {
			if v.IsNull() {
				return sqltypes.Null, nil
			}
			s += v.AsString()
		}
		return sqltypes.NewString(s), nil
	default:
		return sqltypes.Null, fmt.Errorf("sqlexec: unknown function %s", t.Name)
	}
}

func (env *rowEnv) serialize(e sqlparser.Expr) string {
	if env.ser == nil {
		env.ser = sqlparser.NewSerializer(sqlparser.DialectMySQL)
	}
	return env.ser.SerializeExpr(e)
}

func upperASCII(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'a' && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

func lowerASCII(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c - 'A' + 'a'
		}
	}
	return string(b)
}

// likeMatch implements SQL LIKE with '%' and '_' wildcards using an
// iterative two-pointer match (the classic wildcard algorithm), avoiding
// regexp compilation on the hot path.
func likeMatch(s, pattern string) bool {
	var si, pi int
	star, sMark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			sMark = si
			pi++
		case star >= 0:
			pi = star + 1
			sMark++
			si = sMark
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

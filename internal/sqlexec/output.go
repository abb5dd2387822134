package sqlexec

import (
	"fmt"
	"slices"
	"strconv"

	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
)

// output is the statement-only half of turning filtered source rows into a
// result: the expanded projection, the aggregates to accumulate, and where
// each ORDER BY key comes from. It depends on the statement and the tables'
// schemas, never on bind arguments or rows, so a select plan keeps it.
type output struct {
	stmt  *sqlparser.SelectStmt
	items []sqlparser.SelectItem // stars expanded
	names []string               // result column names
	// grouped statements accumulate aggs per group; aggOf maps every
	// aggregate call in the projection, HAVING and ORDER BY to its slot
	// (calls with the same text share one).
	grouped bool
	groupBy []sqlparser.Expr // the GROUP BY keys, a position resolved to its item
	aggs    []*sqlparser.FuncExpr
	aggOf   map[*sqlparser.FuncExpr]int
	order   []orderKey
	// keysInOutput: every ORDER BY key is an output column, so rows sort
	// by themselves and no key row is built.
	keysInOutput bool
}

// orderKey is one resolved ORDER BY item: an output column (an alias or a
// 1-based position), or any expression over the source row (including
// aggregates in grouped queries).
type orderKey struct {
	pos  int // output column, or -1 to evaluate expr
	expr sqlparser.Expr
	desc bool
}

func compileOutput(stmt *sqlparser.SelectStmt, env *rowEnv) (*output, error) {
	items, names, err := expandItems(stmt, env)
	if err != nil {
		return nil, err
	}
	o := &output{stmt: stmt, items: items, names: names, keysInOutput: true}
	// A statement is grouped by a GROUP BY or by any aggregate call,
	// however deeply nested: MAX(v) - MIN(v) is one row per group.
	o.collectAggregates(env)
	o.grouped = len(stmt.GroupBy) > 0 || len(o.aggs) > 0
	for _, g := range stmt.GroupBy {
		pos, err := position(g, len(items), "GROUP BY")
		if pos >= 0 {
			if g = items[pos].Expr; hasAggregate(g) {
				err = fmt.Errorf("%w: GROUP BY position %d is the aggregate %s", ErrUnknownColumn, pos+1, env.serialize(g))
			}
		}
		if err != nil {
			return nil, err
		}
		o.groupBy = append(o.groupBy, g)
	}
	for _, ob := range stmt.OrderBy {
		pos, err := position(ob.Expr, len(items), "ORDER BY")
		if err != nil {
			return nil, err
		}
		key := orderKey{pos: pos, expr: ob.Expr, desc: ob.Desc}
		if ref, ok := ob.Expr.(*sqlparser.ColumnRef); ok && ref.Table == "" {
			for j, n := range names {
				if equalFold(n, ref.Name) {
					key.pos = j
					break
				}
			}
		}
		if key.pos < 0 {
			o.keysInOutput = false
		}
		o.order = append(o.order, key)
	}
	return o, nil
}

// position resolves an ORDER BY / GROUP BY item that is a 1-based position
// to its output column; -1 for any other item (-1 is a constant, as in MySQL).
func position(e sqlparser.Expr, width int, clause string) (int, error) {
	lit, ok := e.(*sqlparser.Literal)
	if !ok || lit.Val.Kind != sqltypes.KindInt || lit.Val.I < 0 {
		return -1, nil
	}
	if lit.Val.I == 0 || lit.Val.I > int64(width) {
		return -1, fmt.Errorf("%w: %s position %d is outside the projection", ErrUnknownColumn, clause, lit.Val.I)
	}
	return int(lit.Val.I - 1), nil
}

// collectAggregates gathers every distinct aggregate expression appearing
// in the projection, HAVING and ORDER BY; calls with the same serialized
// text whose "?"s read the same arguments accumulate once (SUM(v % ?)
// twice is two sums when the two "?"s are two arguments).
func (o *output) collectAggregates(env *rowEnv) {
	var byText map[string]int
	visit := func(e sqlparser.Expr) {
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
			f, ok := x.(*sqlparser.FuncExpr)
			if !ok || !f.IsAggregate() {
				return true
			}
			if byText == nil {
				o.aggOf, byText = map[*sqlparser.FuncExpr]int{}, map[string]int{}
			}
			if env.ser == nil {
				env.ser = sqlparser.NewSerializer(sqlparser.DialectMySQL)
			}
			t, reads := env.ser.SerializeReads(&sqlparser.SelectStmt{Items: []sqlparser.SelectItem{{Expr: f}}})
			text := fmt.Sprint(t, reads)
			slot, seen := byText[text]
			if !seen {
				slot = len(o.aggs)
				byText[text] = slot
				o.aggs = append(o.aggs, f)
			}
			o.aggOf[f] = slot
			return false
		})
	}
	for _, item := range o.stmt.Items {
		visit(item.Expr)
	}
	visit(o.stmt.Having)
	for _, ob := range o.stmt.OrderBy {
		visit(ob.Expr)
	}
}

func itemName(item sqlparser.SelectItem, env *rowEnv) string {
	if item.Alias != "" {
		return item.Alias
	}
	if ref, ok := item.Expr.(*sqlparser.ColumnRef); ok {
		return ref.Name
	}
	return env.serialize(item.Expr)
}

// expandItems resolves stars into concrete column references, returning
// the output column names alongside.
func expandItems(stmt *sqlparser.SelectStmt, env *rowEnv) ([]sqlparser.SelectItem, []string, error) {
	items := make([]sqlparser.SelectItem, 0, len(stmt.Items))
	names := make([]string, 0, len(stmt.Items))
	for _, item := range stmt.Items {
		if !item.Star {
			items = append(items, item)
			names = append(names, itemName(item, env))
			continue
		}
		for ti := range env.tables {
			t := &env.tables[ti]
			if item.StarTable != "" && !t.qualifiedBy(item.StarTable) {
				continue
			}
			// The last name is the alias when there is one.
			qual := t.quals[len(t.quals)-1]
			for _, c := range t.schema {
				items = append(items, sqlparser.SelectItem{Expr: &sqlparser.ColumnRef{Table: qual, Name: c.Name}})
				names = append(names, c.Name)
			}
		}
	}
	if len(items) == 0 {
		return nil, nil, fmt.Errorf("sqlexec: empty projection")
	}
	return items, names, nil
}

// Output is a SELECT's output stage — grouping, HAVING, projection, ORDER
// BY, DISTINCT and LIMIT — compiled against a column list instead of a
// table: a select plan's output without the scan. The kernel's merger runs
// a grouped statement's combine through it over the units' partial rows,
// so both tiers group with one set of operators. It is immutable and safe
// for concurrent use.
type Output struct {
	out    *output
	tables []tableCols
}

// CompileOutput compiles the statement's output stage over rows whose
// columns are named, in order, by columns. The statement's FROM and WHERE
// are not read; a star stands for every column.
func CompileOutput(stmt *sqlparser.SelectStmt, columns []string) (*Output, error) {
	schema := make(sqltypes.Schema, len(columns))
	for i, c := range columns {
		schema[i].Name = c
	}
	// The one unnamed table: a star expands to unqualified references.
	tables := []tableCols{{quals: []string{""}, schema: schema}}
	out, err := compileOutput(stmt, &rowEnv{tables: tables})
	if err != nil {
		return nil, err
	}
	return &Output{out: out, tables: tables}, nil
}

// Run produces the statement's result from rows, each as wide as the
// column list, with args bound to the statement's placeholders.
func (o *Output) Run(rows []sqltypes.Row, args []sqltypes.Value) (*Result, error) {
	return o.out.produce(&rowEnv{tables: o.tables, args: args}, rows)
}

// produce turns the filtered source rows into the statement's result.
func (o *output) produce(env *rowEnv, rows []sqltypes.Row) (*Result, error) {
	var res *Result
	var err error
	if o.grouped {
		res, err = o.group(env, rows)
	} else {
		res, err = o.project(env, rows)
	}
	if err != nil {
		return nil, err
	}
	if o.stmt.Distinct {
		res.Rows = DistinctRows(res.Rows)
	}
	if err := applyLimit(o.stmt.Limit, env.args, res); err != nil {
		return nil, err
	}
	return res, nil
}

// project evaluates the projection per row. Output and key values of one
// result come from one backing array each, not one allocation per row, and
// a one-row result, a point lookup's, shares its allocation with its row.
func (o *output) project(env *rowEnv, rows []sqltypes.Row) (*Result, error) {
	if len(rows) == 0 {
		return &Result{Columns: o.names}, nil
	}
	var res *Result
	if len(rows) == 1 {
		one := &struct {
			Result
			row [1]sqltypes.Row
		}{}
		res = &one.Result
		res.Rows = one.row[:]
	} else {
		res = &Result{Rows: make([]sqltypes.Row, len(rows))}
	}
	res.Columns = o.names
	w := len(o.items)
	vals := make([]sqltypes.Value, len(rows)*w)
	var keyRows []sqltypes.Row // each row's ORDER BY keys: itself if all are output columns
	var keyVals []sqltypes.Value
	if len(o.order) > 0 {
		keyRows = res.Rows
		if !o.keysInOutput {
			keyRows = make([]sqltypes.Row, len(rows))
			keyVals = make([]sqltypes.Value, len(rows)*len(o.order))
		}
	}
	for i, r := range rows {
		env.row = r
		out := sqltypes.Row(vals[i*w : (i+1)*w : (i+1)*w])
		for j := range o.items {
			v, err := env.eval(o.items[j].Expr)
			if err != nil {
				return nil, err
			}
			out[j] = v
		}
		res.Rows[i] = out
		if keyVals != nil {
			keys, err := o.sortKeys(env, out, keyVals[i*len(o.order):(i+1)*len(o.order)])
			if err != nil {
				return nil, err
			}
			keyRows[i] = keys
		}
	}
	if keyRows != nil {
		o.sort(res.Rows, keyRows)
	}
	return res, nil
}

// sortKeys returns the row's ORDER BY keys: the output row itself when
// every key is an output column, else the key values written into keys.
// env.row (and, in grouped queries, the group's aggregates) must be set.
func (o *output) sortKeys(env *rowEnv, out, keys sqltypes.Row) (sqltypes.Row, error) {
	for i := range o.order {
		k := &o.order[i]
		if o.keysInOutput {
			continue
		}
		if k.pos >= 0 {
			keys[i] = out[k.pos]
			continue
		}
		v, err := env.eval(k.expr)
		if err != nil {
			return nil, err
		}
		keys[i] = v
	}
	if o.keysInOutput {
		return out, nil
	}
	return keys, nil
}

// sort orders rows stably by keys (keys[i] is rows[i]'s; keys may be rows).
func (o *output) sort(rows, keys []sqltypes.Row) {
	perm := make([]int32, len(rows))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortStableFunc(perm, func(a, b int32) int {
		ka, kb := keys[a], keys[b]
		for i := range o.order {
			col := i
			if o.keysInOutput {
				col = o.order[i].pos
			}
			if c := sqltypes.Compare(ka[col], kb[col]); c != 0 {
				if o.order[i].desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	// A sorted permutation moves each row once: row i takes rows[perm[i]].
	for i := range perm {
		if perm[i] < 0 {
			continue
		}
		first, j := rows[i], i
		for {
			k := int(perm[j])
			perm[j] = -1
			if k == i {
				rows[j] = first
				break
			}
			rows[j], j = rows[k], k
		}
	}
}

// distinctSmall is the row count up to which DISTINCT compares rows
// pairwise instead of hashing them, which allocates a key per row: a
// source's union of a range's tables is tens of rows.
const distinctSmall = 32

// DistinctRows keeps the first of each set of equal rows, in place, under
// one engine's value identity: numeric kinds compare by value, so 2 and
// 2.0 are one value, and NULL equals NULL. The kernel's merger dedupes
// units' rows with it, or with Dedup when they are ordered by columns.
func DistinctRows(rows []sqltypes.Row) []sqltypes.Row {
	if len(rows) < 2 {
		return rows
	}
	out := rows[:0]
	if len(rows) <= distinctSmall {
		for _, r := range rows {
			dup := false
			for _, kept := range out {
				if dup = sameRow(kept, r); dup {
					break
				}
			}
			if !dup {
				out = append(out, r)
			}
		}
		return out
	}
	seen := make(map[string]struct{}, len(rows))
	var key []byte // one buffer: a lookup allocates nothing, a kept row its key
	for _, r := range rows {
		key = appendRowKey(key[:0], r)
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		out = append(out, r)
	}
	return out
}

// appendRowKey appends a key of the row's values that two rows share only
// when sameRow holds: each value's hashKey encoding, a string's bytes led
// by their length so that no string can pass for several values.
func appendRowKey(b []byte, r sqltypes.Row) []byte {
	for _, v := range r {
		b = appendValueKey(b, v)
	}
	return b
}

// appendValueKey appends one value's part of appendRowKey's key.
func appendValueKey(b []byte, v sqltypes.Value) []byte {
	if v.Kind == sqltypes.KindString {
		b = append(strconv.AppendInt(append(b, 's'), int64(len(v.S)), 10), ':')
		return append(b, v.S...)
	}
	return append(appendKey(b, v), 0)
}

// Dedup is DistinctRows over a stream: Add keeps the first of each set
// of equal rows it is shown. A few rows are compared pairwise and more
// are hashed, as DistinctRows does; Reset forgets them. The merger
// dedupes an ordered stream with it, one run of equal ORDER BY keys at a
// time.
type Dedup struct {
	kept []sqltypes.Row
	seen map[string]struct{}
	key  []byte
}

// Add reports whether r is the first row of its set since the last Reset.
func (d *Dedup) Add(r sqltypes.Row) bool {
	if d.seen == nil {
		for _, kept := range d.kept {
			if sameRow(kept, r) {
				return false
			}
		}
		if d.kept = append(d.kept, r); len(d.kept) <= distinctSmall {
			return true
		}
		d.seen = make(map[string]struct{}, 2*distinctSmall)
		for _, kept := range d.kept {
			d.key = appendRowKey(d.key[:0], kept)
			d.seen[string(d.key)] = struct{}{}
		}
		return true
	}
	d.key = appendRowKey(d.key[:0], r)
	if _, dup := d.seen[string(d.key)]; dup {
		return false
	}
	d.seen[string(d.key)] = struct{}{}
	return true
}

// Reset forgets every row added, keeping the pairwise list's array.
func (d *Dedup) Reset() {
	clear(d.kept)
	d.kept, d.seen = d.kept[:0], nil
}

// sameRow reports whether two rows are equal under hashKey's notion of
// value identity (numeric kinds share an encoding, NULL equals NULL).
func sameRow(a, b sqltypes.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind == sqltypes.KindString && b[i].Kind == sqltypes.KindString {
			if a[i].S != b[i].S {
				return false
			}
		} else if hashKey(a[i]) != hashKey(b[i]) {
			return false
		}
	}
	return true
}

func applyLimit(lim *sqlparser.Limit, args []sqltypes.Value, res *Result) error {
	if lim == nil {
		return nil
	}
	env := rowEnv{args: args}
	count, err := env.eval(lim.Count)
	if err != nil {
		return err
	}
	offset := int64(0)
	if lim.Offset != nil {
		ov, err := env.eval(lim.Offset)
		if err != nil {
			return err
		}
		offset = ov.AsInt()
	}
	n := int64(len(res.Rows))
	if offset >= n {
		res.Rows = nil
		return nil
	}
	end := offset + count.AsInt()
	if end > n || count.AsInt() < 0 {
		end = n
	}
	res.Rows = res.Rows[offset:end]
	return nil
}

func hasAggregate(e sqlparser.Expr) bool {
	found := false
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		if f, ok := x.(*sqlparser.FuncExpr); ok && f.IsAggregate() {
			found = true
			return false
		}
		return true
	})
	return found
}

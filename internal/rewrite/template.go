package rewrite

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"shardingsphere/internal/route"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
)

// spliced is one dialect's text of a statement with a hole wherever it
// names a table: a unit's SQL is the text with each hole filled by its
// table's actual name. reads is the argument each "?" of the text reads,
// in text order; nil when the text reads the statement's arguments as
// they are.
type spliced struct {
	text  string
	holes []sqlparser.Hole
	reads []int
	// texts, in a remembering compiled value of one table, maps each
	// actual table a unit named to its spliced text. The map is never
	// edited once published: a bind that splices new tables publishes a
	// larger copy.
	texts atomic.Pointer[map[string]string]
}

// compiled is the one rewrite mechanism (paper Section VI-C, identifier
// rewrite): a statement's text is written once per dialect, with holes
// where it names a table, and each routed unit's SQL is that text with the
// unit's actual table names filled in. A unit's arguments are the bound
// arguments in the order the dialect's text reads them.
type compiled struct {
	stmt   sqlparser.Statement // only read: several sessions may cut it
	tables []string            // the names the holes stand for, as the statement spells them
	need   int                 // the arguments the statement reads: one past the highest index
	text   [sqlparser.DialectPostgreSQL + 1]atomic.Pointer[spliced]
	// remember, set on a fan-out form of one table, keeps each actual
	// table's text (spliced.texts) from the value's second bind on: a kept
	// template's repeated bind splices nothing, and a template bound once
	// (Rewriter.Rewrite, a per-execution plan) never pays for the memo.
	remember bool
	bound    atomic.Bool
}

// compile prepares a statement, which it only reads, for rewriting. A
// dialect's text is written when a unit of that dialect first binds.
func compile(stmt sqlparser.Statement, tables []string) *compiled {
	return &compiled{stmt: stmt, tables: tables, need: argsRead(stmt)}
}

// argsRead is one past the highest argument index the statement reads.
func argsRead(stmt sqlparser.Statement) int {
	n := 0
	sqlparser.WalkStatement(stmt, func(e sqlparser.Expr) bool {
		if p, ok := e.(*sqlparser.Placeholder); ok {
			n = max(n, p.Index+1)
		}
		return true
	})
	return n
}

// cut returns the dialect's text, writing it on first use. Sessions that
// race write identical texts, and every one uses the first published.
func (c *compiled) cut(d sqlparser.Dialect) *spliced {
	if sp := c.text[d].Load(); sp != nil {
		return sp
	}
	text, holes, reads := sqlparser.NewSerializer(d).SerializeCut(c.stmt, c.tables)
	sp := &spliced{text: text, holes: holes}
	for i, r := range reads {
		if r != i {
			sp.reads = reads
			break
		}
	}
	if !c.text[d].CompareAndSwap(nil, sp) {
		return c.text[d].Load()
	}
	return sp
}

// splice renders the text with the tables' values (names already quoted
// for the dialect).
func (sp *spliced) splice(values []string) string {
	if len(sp.holes) == 0 {
		return sp.text
	}
	n := len(sp.text)
	for _, h := range sp.holes {
		n += len(values[h.Table])
	}
	var b strings.Builder
	b.Grow(n)
	sp.spliceTo(&b, values)
	return b.String()
}

// spliceTo writes the text with the tables' values to b.
func (sp *spliced) spliceTo(b *strings.Builder, values []string) {
	at := 0
	for _, h := range sp.holes {
		b.WriteString(sp.text[at:h.At])
		b.WriteString(values[h.Table])
		at = h.At
	}
	b.WriteString(sp.text[at:])
}

// size is the length of a one-table text with every hole filled by name.
func (sp *spliced) size(name string) int { return len(sp.text) + len(sp.holes)*len(name) }

// units renders one SQL unit per routed unit. The route keys a unit's
// TableMap by the rule's logic table, whose case may differ from the
// statement's spelling; a table the unit does not map keeps the name its
// FROM clause spells. A unit that maps one table carries its logic and actual name.
// A text that reads the arguments as they are passes them through; units
// of one data source share one reordered list. args holds c.need values.
// The units become res's, in the array res already holds when it is large
// enough (in res itself when one unit fits). The texts of one table's
// units are spliced into one buffer, one allocation per bind.
func (c *compiled) units(res *Result, routed []route.Unit, args []sqltypes.Value, dialect DialectFunc) {
	units := res.Units[:0]
	if cap(units) <= len(res.inline) {
		units = res.inline[:0]
	}
	out := slices.Grow(units, len(routed))[:len(routed)]
	res.Units = out
	// Fan-outs revisit a handful of data sources; resolve each dialect once.
	type resolved struct {
		ds    string
		d     sqlparser.Dialect
		text  *spliced
		texts map[string]string
		args  []sqltypes.Value
	}
	var seen [8]resolved
	nseen := 0
	var buf [2]string
	values := buf[:len(c.tables)]
	if len(c.tables) > len(buf) {
		values = make([]string, len(c.tables))
	}
	remember := c.remember && (c.bound.Load() || c.bound.Swap(true))
	var fresh []rememberedText
	// pending are the units whose one-table text is still to splice, each
	// with its quoted table name in its SQL until then; size is their
	// texts' length.
	var pendingBuf [64]pendingUnit
	pending, size := pendingBuf[:0], 0
	for i, unit := range routed {
		var r *resolved
		for j := 0; j < nseen && r == nil; j++ {
			if seen[j].ds == unit.DataSource {
				r = &seen[j]
			}
		}
		if r == nil {
			r = &seen[nseen%len(seen)] // past the memo's size, the last slot is scratch
			r.ds, r.d = unit.DataSource, dialect(unit.DataSource)
			r.text, r.texts, r.args = c.cut(r.d), nil, args
			if m := r.text.texts.Load(); m != nil {
				r.texts = *m
			}
			if r.text.reads != nil {
				r.args = make([]sqltypes.Value, len(r.text.reads))
				for j, a := range r.text.reads {
					r.args[j] = args[a]
				}
			}
			if nseen < len(seen)-1 {
				nseen++
			}
		}
		u := &out[i]
		*u = SQLUnit{DataSource: unit.DataSource, Args: r.args}
		for slot, table := range c.tables {
			key := table
			name, ok := unit.TableMap[key]
			if !ok {
				for k, v := range unit.TableMap {
					if strings.EqualFold(k, table) {
						key, name, ok = k, v, true
					}
				}
			}
			if !ok {
				name = table
			} else if len(unit.TableMap) == 1 {
				u.LogicTable, u.ActualTable = key, name
			}
			values[slot] = name
		}
		if remember {
			if text, ok := r.texts[values[0]]; ok {
				u.SQL = text
				continue
			}
		}
		if len(values) == 1 && len(r.text.holes) > 0 {
			pending = append(pending, pendingUnit{i, r.text, values[0]})
			u.SQL = sqlparser.QuoteIdent(r.d, values[0])
			size += r.text.size(u.SQL)
			continue
		}
		// Several tables, or a text that names none (nothing to remember).
		for slot, name := range values {
			values[slot] = sqlparser.QuoteIdent(r.d, name)
		}
		u.SQL = r.text.splice(values)
	}
	if len(pending) > 0 {
		var b strings.Builder
		b.Grow(size)
		for _, p := range pending {
			p.text.spliceTo(&b, []string{out[p.i].SQL})
		}
		all, at := b.String(), 0
		for _, p := range pending {
			u := &out[p.i]
			n := p.text.size(u.SQL)
			u.SQL, at = all[at:at+n], at+n
			if remember {
				fresh = append(fresh, rememberedText{p.text, p.table, u.SQL})
			}
		}
	}
	if fresh != nil {
		remembers(fresh)
	}
}

// pendingUnit is a unit whose one-table text is still to splice: its
// position, its dialect's text and its actual table.
type pendingUnit struct {
	i     int
	text  *spliced
	table string
}

// rememberedText is a text a bind spliced for a remembering compiled
// value: its dialect's spliced text, the actual table and the unit's SQL.
type rememberedText struct {
	in          *spliced
	table, text string
}

// remembers publishes a bind's new texts, one larger copy per dialect. A
// copy that loses a race to another bind's is dropped: a later bind
// splices those tables again and retries.
func remembers(fresh []rememberedText) {
	for len(fresh) > 0 {
		sp := fresh[0].in
		old := sp.texts.Load()
		var m map[string]string
		if old != nil {
			m = maps.Clone(*old)
		} else {
			m = make(map[string]string, len(fresh))
		}
		rest := fresh[:0]
		for _, f := range fresh {
			if f.in == sp {
				m[f.table] = f.text
			} else {
				rest = append(rest, f)
			}
		}
		sp.texts.CompareAndSwap(old, &m)
		fresh = rest
	}
}

// Template is a statement compiled for rewriting: everything the rewriter
// derives from the statement alone is computed once, and binding a route
// and arguments only splices.
//
// A statement has up to two forms, each built on first use so a shape
// never pays for one it does not take. The whole form is the statement as
// written, cut at its table names: UPDATE, DELETE and DDL on any number of
// units, a SELECT on one node (the node's own executor paginates and
// orders; paper Section VI-C, optimization rewrite), an INSERT whose unit
// receives every row. The fan-out form is a SELECT on several nodes — a
// grouped statement's partial with its compiled combine, any other
// statement's derived columns and merge context with a LIMIT of one "?"
// that reads offset+count — or an INSERT whose rows land on several nodes,
// cut into a head and one text per row.
type Template struct {
	stmt   sqlparser.Statement
	tables []string // as the statement spells them

	wholeOnce sync.Once
	whole     *compiled
	wholeCtx  *SelectContext // SELECT: the single-node merge context

	fanOnce sync.Once
	fan     *compiled
	fanSel  *SelectContext
	fanArgs int   // the statement's own arguments; a fan-out LIMIT reads the one after them
	fanErr  error // the SELECT has no multi-node form
	split   *splitInsert
}

// NewTemplate compiles a statement for rewriting; tables are the names,
// as the statement spells them, that a route may map to actual tables. ok
// is false for a statement that is never sent to a data node as rewritten
// SQL (TCL, SET, SHOW).
func NewTemplate(stmt sqlparser.Statement, tables ...string) (*Template, bool) {
	switch stmt.(type) {
	case *sqlparser.SelectStmt, *sqlparser.InsertStmt, *sqlparser.UpdateStmt, *sqlparser.DeleteStmt,
		*sqlparser.CreateTableStmt, *sqlparser.DropTableStmt, *sqlparser.TruncateStmt, *sqlparser.CreateIndexStmt:
		return &Template{stmt: stmt, tables: tables}, true
	}
	return nil, false
}

func (t *Template) wholeForm() (*compiled, *SelectContext) {
	t.wholeOnce.Do(func() {
		if s, ok := t.stmt.(*sqlparser.SelectStmt); ok {
			t.wholeCtx = SingleNodeSelectContext(s)
		}
		t.whole = compile(t.stmt, t.tables)
	})
	return t.whole, t.wholeCtx
}

func (t *Template) fanOutForm() {
	t.fanOnce.Do(func() {
		switch s := t.stmt.(type) {
		case *sqlparser.SelectStmt:
			work, ctx, err := deriveSelect(s)
			if err != nil {
				t.fanErr = err
				return
			}
			if work.Limit != nil {
				// Pagination revision: every node returns the first
				// offset+count rows, a value bound after the statement's own.
				t.fanArgs = argsRead(s)
				work.Limit = &sqlparser.Limit{Count: &sqlparser.Placeholder{Index: t.fanArgs}}
			}
			t.fan, t.fanSel = compile(work, t.tables), ctx
			t.fan.remember = len(t.tables) == 1
		case *sqlparser.InsertStmt:
			t.split = newSplitInsert(s, t.tables)
		}
	})
}

// Render splices one actual table name into a single-table statement's
// whole form. ok is false for a dialect the serializer does not know, a
// template of several tables and a text whose "?"s read out of order.
func (t *Template) Render(d sqlparser.Dialect, actual string) (string, bool) {
	c, _ := t.wholeForm()
	if int(d) >= len(c.text) || len(t.tables) != 1 || c.cut(d).reads != nil {
		return "", false
	}
	return c.cut(d).splice([]string{sqlparser.QuoteIdent(d, actual)}), true
}

// Rewrite binds a route and argument values: one SQL unit per routed
// unit, and for a SELECT the context its results merge under.
func (t *Template) Rewrite(rt *route.Result, args []sqltypes.Value, dialect DialectFunc) (*Result, error) {
	res := new(Result)
	if err := t.RewriteInto(res, rt, args, dialect); err != nil {
		return nil, err
	}
	return res, nil
}

// RewriteInto is Rewrite writing into res, which the caller owns: a caller
// that is done with one statement's units before it binds the next
// rewrites every statement into one Result.
func (t *Template) RewriteInto(res *Result, rt *route.Result, args []sqltypes.Value, dialect DialectFunc) error {
	var c *compiled
	var ctx *SelectContext
	union := false // the units are Union units
	switch s := t.stmt.(type) {
	case *sqlparser.SelectStmt:
		var li *LimitInfo
		if s.Limit != nil {
			// Single-node pagination is pushed down untouched, but bad
			// values fail here all the same.
			var err error
			if li, err = evalLimit(s.Limit, args); err != nil {
				return err
			}
		}
		if rt.SingleNode() {
			break
		}
		if t.fanOutForm(); t.fanErr != nil {
			return t.fanErr
		}
		c, ctx = t.fan, t.fanSel
		union = len(t.tables) == 1 && len(s.From) == 1 && !s.ForUpdate
		switch {
		case ctx.Combine != nil:
			// The combine filters, orders and pages with the statement's
			// own arguments; its units have no LIMIT.
			withArgs := *ctx
			withArgs.Args = args
			ctx = &withArgs
		case li != nil:
			withLimit := *ctx
			withLimit.Limit = li
			ctx = &withLimit
			// The merger re-applies the real offset.
			li.Revised = li.Offset > 0
			n := min(len(args), t.fanArgs)
			args = append(args[:n:n], sqltypes.NewInt(li.Offset+li.Count))
		}
	case *sqlparser.InsertStmt:
		// A route of several units with row indexes split the rows among
		// them; any other hands every unit every row.
		if len(rt.Units) > 1 && rt.Units[0].RowIndexes != nil {
			t.fanOutForm()
			return t.split.units(res, rt.Units, args, dialect)
		}
	}
	if c == nil {
		c, ctx = t.wholeForm()
	}
	if len(args) < c.need {
		return fmt.Errorf("rewrite: statement reads %d bind arguments, %d given", c.need, len(args))
	}
	// A unit gets what its text reads: a grouped statement's partial may
	// leave the arguments of its HAVING, ORDER BY and LIMIT to the combine.
	res.Select = ctx
	c.units(res, rt.Units, args[:c.need], dialect)
	for i := range res.Units {
		res.Units[i].Union = union && res.Units[i].ActualTable != ""
	}
	return nil
}

// splitInsert is the fan-out form of an INSERT (paper: "splits batched
// insert ... to avoid writing excessive data"): each unit's SQL is the
// head with its table name plus the texts of its rows, and its arguments
// are what those rows' texts read, in order — rows keep their
// placeholders, so no value is ever rendered into text.
type splitInsert struct {
	head *compiled                                    // "INSERT INTO <table> (columns) VALUES "
	rows [sqlparser.DialectPostgreSQL + 1][]insertRow // each row, per dialect
	need int                                          // the arguments the rows read
}

type insertRow struct {
	text  string
	reads []int
}

func newSplitInsert(stmt *sqlparser.InsertStmt, tables []string) *splitInsert {
	sp := &splitInsert{head: compile(&sqlparser.InsertStmt{Table: stmt.Table, Columns: stmt.Columns}, tables)}
	for d := range sp.rows {
		ser := sqlparser.NewSerializer(sqlparser.Dialect(d))
		one := sqlparser.InsertStmt{Table: stmt.Table, Columns: stmt.Columns}
		head := len(ser.Serialize(&one))
		sp.rows[d] = make([]insertRow, len(stmt.Rows))
		for i := range stmt.Rows {
			// A row's text is what a one-row INSERT adds to the head.
			one.Rows = stmt.Rows[i : i+1]
			text, reads := ser.SerializeReads(&one)
			sp.rows[d][i] = insertRow{text: text[head:], reads: reads}
			for _, r := range reads {
				sp.need = max(sp.need, r+1)
			}
		}
	}
	return sp
}

func (sp *splitInsert) units(res *Result, routed []route.Unit, args []sqltypes.Value, dialect DialectFunc) error {
	if len(args) < sp.need {
		return fmt.Errorf("rewrite: statement reads %d bind arguments, %d given", sp.need, len(args))
	}
	res.Select = nil
	sp.head.units(res, routed, nil, dialect)
	out := res.Units
	for i := range out {
		rows := sp.rows[dialect(out[i].DataSource)]
		var b strings.Builder
		b.WriteString(out[i].SQL)
		for j, idx := range routed[i].RowIndexes {
			if idx < 0 || idx >= len(rows) {
				return fmt.Errorf("rewrite: row index %d out of range", idx)
			}
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(rows[idx].text)
			for _, a := range rows[idx].reads {
				out[i].Args = append(out[i].Args, args[a])
			}
		}
		out[i].SQL = b.String()
	}
	return nil
}

// SingleNodeSelectContext derives the merge context of a single-node
// SELECT (paper Section VI-C, optimization rewrite: no derivation, no
// pagination revision). It only reads the statement, so the result can be
// kept and shared across sessions.
func SingleNodeSelectContext(stmt *sqlparser.SelectStmt) *SelectContext {
	ctx := &SelectContext{Distinct: stmt.Distinct}
	resolveKeysForSingleNode(stmt, ctx)
	return ctx
}

package rewrite

import (
	"strconv"
	"strings"
	"sync"

	"shardingsphere/internal/route"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
)

// sentinelBase starts every table sentinel. A sentinel is the base, the
// table's slot number and "__": a valid bare identifier in both dialects,
// so its occurrences in serialized text correspond one-to-one to renamed
// table references. A statement whose own text contains the base gets a
// longer one.
const sentinelBase = "__sharding_tmpl"

// spliced is one dialect's serialized statement cut at the table
// sentinels: pieces[i] is followed by the table of slots[i], and the last
// piece ends the text.
type spliced struct {
	pieces []string
	slots  []int
}

// compiled is the one identifier-rewrite mechanism (paper Section VI-C):
// a statement is cloned and serialized once per dialect with sentinels in
// place of its table names, and each routed unit's SQL is the pieces with
// that unit's actual table names spliced in — byte-identical to clone +
// RenameTables + Serialize per unit, at the cost of a string join.
type compiled struct {
	tables []string            // names the sentinels replaced, as written in the statement
	base   string              // sentinel prefix absent from the statement's own text
	work   sqlparser.Statement // the sentinel-renamed clone; nil once every dialect is cut
	text   [sqlparser.DialectPostgreSQL + 1]*spliced
}

// compile takes ownership of stmt (a private clone) and renames the given
// tables to sentinels. Dialect texts are cut on demand by cut.
func compile(stmt sqlparser.Statement, tables []string) *compiled {
	c := &compiled{tables: tables, base: sentinelBase, work: stmt}
	if len(tables) == 0 {
		return c
	}
	own := sqlparser.NewSerializer(sqlparser.DialectMySQL).Serialize(stmt)
	for strings.Contains(own, c.base) {
		c.base += "_"
	}
	mapping := make(map[string]string, len(tables))
	for i, t := range tables {
		mapping[t] = c.base + strconv.Itoa(i) + "__"
	}
	sqlparser.RenameTables(stmt, mapping)
	return c
}

// cut returns the dialect's spliced text, serializing on first use. Not
// safe for concurrent first use: a shared compiled statement is cut for
// every dialect before it is published (see seal).
func (c *compiled) cut(d sqlparser.Dialect) *spliced {
	if sp := c.text[d]; sp != nil {
		return sp
	}
	s := sqlparser.NewSerializer(d).Serialize(c.work)
	n := 0
	if len(c.tables) > 0 {
		n = strings.Count(s, c.base)
	}
	sp := &spliced{pieces: make([]string, 0, n+1), slots: make([]int, 0, n)}
	for ; n > 0; n-- {
		i := strings.Index(s, c.base)
		rest := s[i+len(c.base):]
		end := strings.Index(rest, "__")
		slot, _ := strconv.Atoi(rest[:end])
		sp.pieces = append(sp.pieces, s[:i])
		sp.slots = append(sp.slots, slot)
		s = rest[end+2:]
	}
	sp.pieces = append(sp.pieces, s)
	c.text[d] = sp
	return sp
}

// seal cuts every dialect and drops the AST, making the compiled
// statement immutable and safe to share across sessions.
func (c *compiled) seal() *compiled {
	for d := range c.text {
		c.cut(sqlparser.Dialect(d))
	}
	c.work = nil
	return c
}

// splice renders the text with the slots' table names (already quoted for
// the dialect).
func (sp *spliced) splice(names []string) string {
	switch {
	case len(sp.slots) == 0:
		return sp.pieces[0]
	case len(sp.slots) == 1:
		return sp.pieces[0] + names[sp.slots[0]] + sp.pieces[1]
	case len(names) == 1:
		return strings.Join(sp.pieces, names[0])
	}
	var b strings.Builder
	for i, slot := range sp.slots {
		b.WriteString(sp.pieces[i])
		b.WriteString(names[slot])
	}
	b.WriteString(sp.pieces[len(sp.slots)])
	return b.String()
}

// units renders one SQL unit per routed unit. keys[i] is the TableMap key
// of tables[i]; a table the unit does not map keeps its name as written.
// Units of a single-table statement carry their logic and actual table.
func (c *compiled) units(routed []route.Unit, keys []string, args []sqltypes.Value, dialect DialectFunc) []SQLUnit {
	out := make([]SQLUnit, len(routed))
	// Fan-outs revisit a handful of data sources; resolve each dialect once.
	type resolved struct {
		ds   string
		d    sqlparser.Dialect
		text *spliced
	}
	var seen [8]resolved
	nseen := 0
	var one [1]string
	names := one[:]
	if len(keys) != 1 {
		names = make([]string, len(keys))
	}
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
			r.text = c.cut(r.d)
			if nseen < len(seen)-1 {
				nseen++
			}
		}
		u := &out[i]
		u.DataSource, u.Args = unit.DataSource, args
		for slot, key := range keys {
			name, ok := unit.TableMap[key]
			if !ok {
				name = c.tables[slot]
			}
			names[slot] = sqlparser.QuoteIdent(r.d, name)
			u.ActualTable = name
		}
		u.SQL = r.text.splice(names)
		if len(keys) == 1 {
			u.LogicTable = keys[0]
		} else {
			u.ActualTable = ""
		}
	}
	return out
}

// Template is the cached rewrite of one single-table statement shape
// (SELECT, UPDATE, DELETE): everything the rewriter derives from the
// statement alone is computed once, and an execution only splices the
// routed table names in.
//
// A SELECT has two forms. The single-node form is the statement as
// written (the node's own executor paginates and orders; paper Section
// VI-C, optimization rewrite). The multi-node form carries the derived
// columns and the GROUP BY→ORDER BY stream rewrite with their merge
// context; it is built on the shape's first fan-out, so shapes that only
// ever reach one node never pay for it.
type Template struct {
	stmt  sqlparser.Statement
	table string // logic table as written in the statement

	ident  *compiled      // identifier rewrite only
	selCtx *SelectContext // single-node merge context (SELECT)

	multiOnce sync.Once
	multi     *compiled
	multiCtx  *SelectContext
}

// NewTemplate builds the rewrite template for a statement referencing one
// logic table (as written in the statement, case-sensitively — the form
// RenameTables matches). It reports ok=false for statement kinds whose
// rewrite is more than identifier substitution (INSERT splits its rows).
func NewTemplate(stmt sqlparser.Statement, table string) (*Template, bool) {
	t := &Template{stmt: stmt, table: table}
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		t.selCtx = SingleNodeSelectContext(s)
	case *sqlparser.UpdateStmt, *sqlparser.DeleteStmt:
	default:
		return nil, false
	}
	t.ident = compile(sqlparser.CloneStatement(stmt), []string{table}).seal()
	return t, true
}

// Render splices the actual table name into the dialect's single-node
// text. ok is false for a dialect the serializer does not know.
func (t *Template) Render(d sqlparser.Dialect, actual string) (string, bool) {
	if int(d) >= len(t.ident.text) {
		return "", false
	}
	return t.ident.text[d].splice([]string{sqlparser.QuoteIdent(d, actual)}), true
}

// multiForm returns the multi-node SELECT form, deriving it on first use.
func (t *Template) multiForm() (*compiled, *SelectContext) {
	t.multiOnce.Do(func() {
		work, ctx := deriveSelect(t.stmt.(*sqlparser.SelectStmt), true)
		t.multi, t.multiCtx = compile(work, []string{t.table}).seal(), ctx
	})
	return t.multi, t.multiCtx
}

// Rewrite renders the routed units of one execution. key is the TableMap
// key of the template's table (the rule's LogicTable; "" for an unsharded
// table). ok is false for the one case whose node text depends on bound
// values — multi-node pagination with an offset, which rewrites LIMIT to
// offset+count — and the caller runs Rewriter.Rewrite instead.
func (t *Template) Rewrite(rt *route.Result, key string, args []sqltypes.Value, dialect DialectFunc) (res *Result, ok bool, err error) {
	c, ctx := t.ident, t.selCtx
	if sel, isSelect := t.stmt.(*sqlparser.SelectStmt); isSelect {
		var li *LimitInfo
		if sel.Limit != nil {
			// Single-node pagination is pushed down untouched, but bad
			// values must fail here as they do in the rewriter.
			if li, err = evalLimit(sel.Limit, args); err != nil {
				return nil, true, err
			}
		}
		if !rt.SingleNode() {
			if li != nil && li.Offset > 0 {
				return nil, false, nil
			}
			c, ctx = t.multiForm()
			if li != nil {
				withLimit := *ctx
				withLimit.Limit = li
				ctx = &withLimit
			}
		}
	}
	return &Result{Units: c.units(rt.Units, []string{key}, args, dialect), Select: ctx}, true, nil
}

// SingleNodeSelectContext derives the merge context the rewriter would
// produce for a single-node SELECT (paper Section VI-C, optimization
// rewrite: no derivation, no pagination revision). It only reads the
// statement, so the result can be cached and shared across sessions.
func SingleNodeSelectContext(stmt *sqlparser.SelectStmt) *SelectContext {
	ctx := &SelectContext{Distinct: stmt.Distinct}
	resolveKeysForSingleNode(stmt, ctx)
	return ctx
}

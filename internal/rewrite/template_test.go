package rewrite

import (
	"strings"
	"sync"
	"testing"

	"shardingsphere/internal/sqlparser"
)

func parseStmt(t *testing.T, sql string) sqlparser.Statement {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

// TestTemplateTablesRenderAsRename: whatever a table is called — a
// keyword, the rewriter's old sentinel, one letter — and however a
// qualifier spells it, a render in either dialect is what clone +
// renameTables + Serialize writes.
func TestTemplateTablesRenderAsRename(t *testing.T) {
	for _, table := range []string{"select", "__sharding_tmpl0__", "T"} {
		q := func(name string) string { return "`" + name + "`" }
		other := strings.ToUpper(table)
		if other == table {
			other = strings.ToLower(table)
		}
		stmt := parseStmt(t, "SELECT * FROM "+q(table)+" WHERE "+q(table)+".id = ? AND "+q(other)+".k = 1 AND c = '__sharding_tmpl0__'")
		tmpl, ok := NewTemplate(stmt, table)
		if !ok {
			t.Fatalf("NewTemplate refused table %q", table)
		}
		for _, d := range []sqlparser.Dialect{sqlparser.DialectMySQL, sqlparser.DialectPostgreSQL} {
			clone := sqlparser.CloneStatement(stmt)
			renameTables(clone, map[string]string{table: "t_7"})
			want := sqlparser.NewSerializer(d).Serialize(clone)
			if got, _ := tmpl.Render(d, "t_7"); got != want {
				t.Errorf("table %q, %s:\n got %q\nwant %q", table, d, got, want)
			}
		}
	}
}

// TestTemplateCutsEachDialectOnFirstBind: a fresh template bound from
// goroutines at once, two per dialect so that two race to write each
// text, writes what a sequential bind writes, and a template bound only
// in MySQL holds no PostgreSQL text.
func TestTemplateCutsEachDialectOnFirstBind(t *testing.T) {
	stmt := parseStmt(t, "SELECT name, T_USER.age FROM t_user WHERE t_user.uid = ? AND name <> 'x'")
	dialects := [2]sqlparser.Dialect{sqlparser.DialectMySQL, sqlparser.DialectPostgreSQL}
	var want [2]string
	seq, _ := NewTemplate(stmt, "t_user")
	for i, d := range dialects {
		want[i], _ = seq.Render(d, "t_user_3")
	}
	for run := 0; run < 20; run++ {
		tmpl, _ := NewTemplate(stmt, "t_user")
		var got [2][2]string
		var wg sync.WaitGroup
		for i, d := range dialects {
			for j := range got[i] {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i][j], _ = tmpl.Render(d, "t_user_3")
				}()
			}
		}
		wg.Wait()
		for i := range got {
			if got[i][0] != want[i] || got[i][1] != want[i] {
				t.Fatalf("concurrent binds wrote %q, sequential %q", got[i], want[i])
			}
		}
	}
	mysqlOnly, _ := NewTemplate(stmt, "t_user")
	mysqlOnly.Render(sqlparser.DialectMySQL, "t_user_3")
	if mysqlOnly.whole.text[sqlparser.DialectPostgreSQL].Load() != nil {
		t.Fatal("a template bound only in MySQL holds a PostgreSQL text")
	}
}

func TestTemplateNoOccurrences(t *testing.T) {
	// Renaming a table the statement doesn't reference: render is identity.
	stmt := parseStmt(t, "SELECT * FROM t_plain WHERE id = ?")
	tmpl, ok := NewTemplate(stmt, "t_order")
	if !ok {
		t.Fatal("refused")
	}
	got, _ := tmpl.Render(sqlparser.DialectMySQL, "anything")
	want := sqlparser.NewSerializer(sqlparser.DialectMySQL).Serialize(stmt)
	if got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestSingleNodeSelectContext(t *testing.T) {
	stmt := parseStmt(t, "SELECT a, b FROM t_order WHERE order_id = ? ORDER BY b DESC").(*sqlparser.SelectStmt)
	ctx := SingleNodeSelectContext(stmt)
	if len(ctx.OrderBy) != 1 || ctx.OrderBy[0].Index != 1 || !ctx.OrderBy[0].Desc {
		t.Fatalf("ctx %+v", ctx)
	}
	if ctx.Limit != nil || ctx.Derived != 0 {
		t.Fatalf("single-node context must not revise pagination or derive: %+v", ctx)
	}
}

// TestFanOutTextsRememberedFromSecondBind: a template bound once — as
// Rewriter.Rewrite's and a per-execution plan's are — remembers no text;
// from its second bind on, its fan-out form keeps each actual table's text
// per dialect, and a third bind adds none. Sessions that bind a fresh
// template at once, racing to publish its texts, each get the units a
// sequential bind gets.
func TestFanOutTextsRememberedFromSecondBind(t *testing.T) {
	router, dialect := equivalenceFixture(t)
	stmt := parseStmt(t, "SELECT name FROM t_user WHERE uid BETWEEN ? AND ?")
	sk, _ := router.BuildSkeleton(stmt)
	args := intArgs(1, 100)
	rt, err := sk.Route(args, nil)
	if err != nil || len(rt.Units) != 4 {
		t.Fatalf("route: %v, %v", rt, err)
	}
	tmpl, _ := NewTemplate(stmt, "t_user")
	remembered := func() (n int) {
		for d := range tmpl.fan.text {
			if sp := tmpl.fan.text[d].Load(); sp != nil && sp.texts.Load() != nil {
				n += len(*sp.texts.Load())
			}
		}
		return n
	}
	for bind, want := range []int{0, 4, 4} {
		if _, err := tmpl.Rewrite(rt, args, dialect); err != nil {
			t.Fatal(err)
		}
		if n := remembered(); n != want {
			t.Fatalf("after bind %d: %d texts remembered, want %d", bind+1, n, want)
		}
	}
	want, _ := tmpl.Rewrite(rt, args, dialect)
	for run := 0; run < 10; run++ {
		tmpl, _ := NewTemplate(stmt, "t_user")
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var res Result
				for bind := 0; bind < 5; bind++ {
					if err := tmpl.RewriteInto(&res, rt, args, dialect); err != nil {
						t.Error(err)
						return
					}
					for i, u := range res.Units {
						if u.SQL != want.Units[i].SQL || u.ActualTable != want.Units[i].ActualTable {
							t.Errorf("bind %d unit %d: %+v, want %+v", bind, i, u, want.Units[i])
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

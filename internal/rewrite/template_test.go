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

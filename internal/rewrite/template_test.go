package rewrite

import (
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

// TestTemplateSentinelCollision: a statement whose own text contains the
// sentinel gets a longer one instead of being refused, and still renders
// exactly what clone + RenameTables + Serialize would.
func TestTemplateSentinelCollision(t *testing.T) {
	for _, table := range []string{"__sharding_tmpl__", "__sharding_tmpl0__", "t"} {
		stmt := parseStmt(t, "SELECT * FROM "+table+" WHERE "+table+".id = ? AND c = '__sharding_tmpl0__' AND d = '__sharding_tmpl_0__'")
		tmpl, ok := NewTemplate(stmt, table)
		if !ok {
			t.Fatalf("NewTemplate refused table %q", table)
		}
		clone := sqlparser.CloneStatement(stmt)
		sqlparser.RenameTables(clone, map[string]string{table: "t_7"})
		want := sqlparser.NewSerializer(sqlparser.DialectMySQL).Serialize(clone)
		if got, _ := tmpl.Render(sqlparser.DialectMySQL, "t_7"); got != want {
			t.Errorf("table %q:\n got %q\nwant %q", table, got, want)
		}
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

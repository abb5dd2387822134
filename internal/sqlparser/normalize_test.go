package sqlparser

import (
	"testing"

	"shardingsphere/internal/sqltypes"
)

func mustNormalize(t *testing.T, sql string) *Normalized {
	t.Helper()
	n, ok := Normalize(sql)
	if !ok {
		t.Fatalf("Normalize(%q) refused", sql)
	}
	return n
}

func TestNormalizeKeyIsShapeLevel(t *testing.T) {
	a := mustNormalize(t, "SELECT * FROM t_order WHERE order_id = 10")
	b := mustNormalize(t, "select * from t_order where order_id = 9999")
	if a.Key != b.Key {
		t.Fatalf("same shape produced different keys:\n%q\n%q", a.Key, b.Key)
	}
	if a.Key != "SELECT * FROM t_order WHERE order_id = ?" {
		t.Fatalf("unexpected key %q", a.Key)
	}
	if len(a.Args) != 1 || a.Args[0].Arg != -1 || a.Args[0].Lit.AsInt() != 10 {
		t.Fatalf("bad captured args %+v", a.Args)
	}
}

func TestNormalizeKeyReparsesToSameShape(t *testing.T) {
	for _, sql := range []string{
		"SELECT a, b FROM t WHERE id = 7 AND name = 'x' ORDER BY a LIMIT 3",
		"INSERT INTO t (a, b) VALUES (1, 'two'), (3, 'four')",
		"UPDATE t SET a = a + 1, b = 'z' WHERE id = 9",
		"DELETE FROM t WHERE id IN (1, 2, 3)",
		"SELECT * FROM t WHERE x = -5",
		"SELECT COUNT(*) FROM t WHERE id BETWEEN 10 AND 20",
	} {
		n := mustNormalize(t, sql)
		if _, err := Parse(n.Key); err != nil {
			t.Errorf("normalized key %q does not parse: %v", n.Key, err)
		}
	}
}

func TestNormalizeStringEscapes(t *testing.T) {
	a := mustNormalize(t, `SELECT * FROM t WHERE name = 'it''s'`)
	b := mustNormalize(t, `SELECT * FROM t WHERE name = 'it\'s'`)
	c := mustNormalize(t, `SELECT * FROM t WHERE name = 'plain'`)
	if a.Key != b.Key || a.Key != c.Key {
		t.Fatalf("string literals changed the key: %q vs %q vs %q", a.Key, b.Key, c.Key)
	}
	if got := a.Args[0].Lit.AsString(); got != "it's" {
		t.Fatalf("doubled-quote escape captured %q", got)
	}
	if got := b.Args[0].Lit.AsString(); got != "it's" {
		t.Fatalf("backslash escape captured %q", got)
	}
}

func TestNormalizeNegativeNumbers(t *testing.T) {
	neg := mustNormalize(t, "SELECT * FROM t WHERE x = -5")
	pos := mustNormalize(t, "SELECT * FROM t WHERE x = 5")
	if neg.Key == pos.Key {
		t.Fatal("negative and positive literal collapsed to one shape")
	}
	// The sign stays in the shape; the captured value is the magnitude.
	if neg.Args[0].Lit.AsInt() != 5 {
		t.Fatalf("captured %v, want 5", neg.Args[0].Lit)
	}
	// Shape must evaluate back to -5: parse and fold.
	stmt, err := Parse(neg.Key)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*SelectStmt)
	cmp := sel.Where.(*BinaryExpr)
	if _, ok := cmp.R.(*UnaryExpr); !ok {
		t.Fatalf("expected unary negation around the slot, got %T", cmp.R)
	}
}

func TestNormalizeInListArity(t *testing.T) {
	two := mustNormalize(t, "SELECT * FROM t WHERE id IN (1, 2)")
	three := mustNormalize(t, "SELECT * FROM t WHERE id IN (1, 2, 3)")
	if two.Key == three.Key {
		t.Fatal("IN lists of different arity must produce different keys")
	}
	if len(two.Args) != 2 || len(three.Args) != 3 {
		t.Fatalf("captured %d and %d args", len(two.Args), len(three.Args))
	}
}

func TestNormalizeBypass(t *testing.T) {
	for _, sql := range []string{
		"CREATE TABLE t (id INT PRIMARY KEY)",
		"DROP TABLE t",
		"TRUNCATE TABLE t",
		"CREATE INDEX i ON t (a)",
		"BEGIN",
		"COMMIT",
		"ROLLBACK",
		"XA PREPARE 'xid'",
		"SET transaction_type = 'XA'",
		"SHOW TABLES",
		"DESCRIBE t",
		"SHOW SHARDING TABLE RULES",              // DistSQL
		"ALTER SHARDING TABLE RULE t (TYPE=MOD)", // DistSQL
		"'unlexable",
	} {
		if _, ok := Normalize(sql); ok {
			t.Errorf("Normalize(%q) should bypass", sql)
		}
	}
}

func TestNormalizeForUpdateFlag(t *testing.T) {
	n := mustNormalize(t, "SELECT * FROM t WHERE id = 1 FOR UPDATE")
	if !n.ForUpdate {
		t.Fatal("FOR UPDATE not detected")
	}
	if mustNormalize(t, "SELECT * FROM t WHERE id = 1").ForUpdate {
		t.Fatal("false FOR UPDATE")
	}
	if mustNormalize(t, "UPDATE t SET a = 1 WHERE id = 2").ForUpdate {
		t.Fatal("UPDATE statement misflagged as FOR UPDATE")
	}
}

func TestNormalizeBindArgs(t *testing.T) {
	// Mixed placeholders and literals: ? slots take caller args in order,
	// literal slots keep their captured values.
	n := mustNormalize(t, "SELECT * FROM t WHERE a = ? AND b = 5 AND c = ?")
	if len(n.Args) != 3 {
		t.Fatalf("want 3 slots, got %d", len(n.Args))
	}
	bound, err := n.BindArgs([]sqltypes.Value{sqltypes.NewString("x"), sqltypes.NewInt(9)})
	if err != nil {
		t.Fatal(err)
	}
	if bound[0].AsString() != "x" || bound[1].AsInt() != 5 || bound[2].AsInt() != 9 {
		t.Fatalf("bad binding %v", bound)
	}
	if _, err := n.BindArgs(nil); err == nil {
		t.Fatal("missing bind arguments not reported")
	}
}

func TestNormalizeQuotedIdentifiers(t *testing.T) {
	n := mustNormalize(t, "SELECT `select` FROM `from` WHERE `select` = 1")
	stmt, err := Parse(n.Key)
	if err != nil {
		t.Fatalf("quoted-identifier key %q does not re-parse: %v", n.Key, err)
	}
	if stmt.(*SelectStmt).From[0].Name != "from" {
		t.Fatalf("table identifier lost: %q", n.Key)
	}
}

func TestNormalizeKeepsOrdinals(t *testing.T) {
	one := mustNormalize(t, "SELECT a, b FROM t ORDER BY 1")
	two := mustNormalize(t, "SELECT a, b FROM t ORDER BY 2")
	if one.Key == two.Key {
		t.Fatalf("ORDER BY 1 and ORDER BY 2 share the key %q", one.Key)
	}
	if len(one.Args) != 0 {
		t.Fatalf("the ordinal was lifted: %+v", one.Args)
	}
	g := mustNormalize(t, "SELECT a, b, COUNT(*) FROM t GROUP BY 1, 2 ORDER BY a DESC, 2")
	if g.Key != "SELECT a , b , COUNT ( * ) FROM t GROUP BY 1 , 2 ORDER BY a DESC , 2" || len(g.Args) != 0 {
		t.Fatalf("GROUP BY 1, 2 normalized to %q %+v", g.Key, g.Args)
	}
	n := mustNormalize(t, "SELECT a FROM t WHERE id = 3 ORDER BY 1 FOR UPDATE")
	if !n.ForUpdate || len(n.Args) != 1 {
		t.Fatalf("ORDER BY 1 FOR UPDATE: %q %+v ForUpdate=%v", n.Key, n.Args, n.ForUpdate)
	}
}

func TestNormalizeLiftsOperandsAroundOrdinals(t *testing.T) {
	for _, c := range []struct {
		sql, key string
		lits     []int64
	}{
		{"SELECT a FROM t ORDER BY id LIMIT 5", "SELECT a FROM t ORDER BY id LIMIT ?", []int64{5}},
		{"SELECT a FROM t ORDER BY 1 LIMIT 1, 3", "SELECT a FROM t ORDER BY 1 LIMIT ? , ?", []int64{1, 3}},
		{"SELECT COUNT(*) FROM t GROUP BY k % 2", "SELECT COUNT ( * ) FROM t GROUP BY k % ?", []int64{2}},
		{"SELECT a FROM t ORDER BY -1", "SELECT a FROM t ORDER BY - ?", []int64{1}},
		// The parser folds signs into the literal: these are ordinals 1 and 2.
		{"SELECT a, b FROM t ORDER BY - - 1, +2, -(3)", "SELECT a , b FROM t ORDER BY - - 1 , + 2 , - ( ? )", []int64{3}},
		{"SELECT a FROM t ORDER BY COALESCE(a, 0), 2", "SELECT a FROM t ORDER BY COALESCE ( a , ? ) , 2", []int64{0}},
		{"SELECT k FROM t GROUP BY k HAVING COUNT(*) > 1", "SELECT k FROM t GROUP BY k HAVING COUNT ( * ) > ?", []int64{1}},
		{"SELECT a FROM t ORDER BY (2), a IN (3, 4)", "SELECT a FROM t ORDER BY ( 2 ) , a IN ( ? , ? )", []int64{3, 4}},
	} {
		n := mustNormalize(t, c.sql)
		if n.Key != c.key || len(n.Args) != len(c.lits) {
			t.Errorf("%s: key %q %+v, want %q", c.sql, n.Key, n.Args, c.key)
			continue
		}
		for i, v := range c.lits {
			if n.Args[i].Arg != -1 || n.Args[i].Lit.AsInt() != v {
				t.Errorf("%s: slot %d is %+v, want the literal %d", c.sql, i, n.Args[i], v)
			}
		}
	}
}

// BenchmarkLex normalizes the benchmark's Sysbench texts: the ones a
// client writes with an expression, a column list or a call (k = k + 1,
// the INSERT, SUM(k)) always normalize, so they measure the lexer.
func BenchmarkLex(b *testing.B) {
	for _, c := range []struct{ name, sql string }{
		{"point", "SELECT c FROM sbtest WHERE id = ?"},
		{"range", "SELECT c FROM sbtest WHERE id BETWEEN ? AND ?"},
		{"sum", "SELECT SUM(k) FROM sbtest WHERE id BETWEEN ? AND ?"},
		{"order", "SELECT c FROM sbtest WHERE id BETWEEN ? AND ? ORDER BY c"},
		{"distinct", "SELECT DISTINCT c FROM sbtest WHERE id BETWEEN ? AND ? ORDER BY c"},
		{"index_update", "UPDATE sbtest SET k = k + 1 WHERE id = ?"},
		{"non_index_update", "UPDATE sbtest SET c = ? WHERE id = ?"},
		{"delete", "DELETE FROM sbtest WHERE id = ?"},
		{"insert", "INSERT INTO sbtest (id, k, c, pad) VALUES (?, ?, ?, ?)"},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := Normalize(c.sql); !ok {
					b.Fatal("not normalized")
				}
			}
		})
	}
}

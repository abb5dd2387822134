package core

import (
	"errors"
	"fmt"
	"testing"

	"shardingsphere/internal/exec"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/rewrite"
	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sights"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
)

// twoDialectKernel shards t_acct by id%4 over ds0 (MySQL) and ds1
// (PostgreSQL), so every statement that reaches two shards is rendered in
// both dialects.
func twoDialectKernel(t *testing.T) *Kernel {
	t.Helper()
	sources := map[string]*resource.DataSource{
		"ds0": resource.NewEmbedded(storage.NewEngine("ds0"), nil),
		"ds1": resource.NewEmbedded(storage.NewEngine("ds1"), &resource.Options{Dialect: sqlparser.DialectPostgreSQL}),
	}
	rule, err := sharding.BuildAutoRule(sharding.AutoTableSpec{
		LogicTable: "t_acct", Resources: []string{"ds0", "ds1"},
		ShardingColumn: "id", AlgorithmType: "MOD", ShardingCount: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rules := sharding.NewRuleSet()
	rules.AddRule(rule)
	k, err := New(Config{Rules: rules, Sources: sources, MaxCon: 4})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, k.NewSession(), "CREATE TABLE t_acct (id INT PRIMARY KEY, bal DOUBLE, note VARCHAR(16))")
	return k
}

// TestMultiRowInsertBindsEveryRow: a multi-row INSERT whose rows land on
// several shards and carry a negative, float or computed value inserts
// every row — written as literals (which normalize to "- ?", "? + ?") and
// as placeholders, on the execution that compiles the shape's plan and
// keeps it, and on the next (bound from the kept plan), in both dialects.
func TestMultiRowInsertBindsEveryRow(t *testing.T) {
	k := twoDialectKernel(t)
	s := k.NewSession()
	// Each shape's first sights.Keep-1 executions compile for themselves;
	// they run on other ids, in a transaction that rolls back.
	mustExec(t, s, "BEGIN")
	for i := 1; i < sights.Keep; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t_acct (id, bal, note) VALUES (%d, -3, 'x'), (%d, 5, 'y')", 100*i, 100*i+1))
		mustExec(t, s, fmt.Sprintf("INSERT INTO t_acct (id, bal, note) VALUES (%d, 1.5, 'a'), (%d, 1 + 2, 'b'), (%d, -?, 'c'), (%d, ? * 2, ?)", 100*i+2, 100*i+3, 100*i+4, 100*i+5),
			sqltypes.NewInt(7), sqltypes.NewFloat(0.25), sqltypes.NewString("d?"))
	}
	mustExec(t, s, "ROLLBACK")
	for i, ins := range []struct {
		sql  string
		args []sqltypes.Value
	}{
		{"INSERT INTO t_acct (id, bal, note) VALUES (6, -3, 'x'), (7, 5, 'y')", nil}, // compiled and kept
		{"INSERT INTO t_acct (id, bal, note) VALUES (9, -4, 'p'), (8, 6, 'q')", nil}, // the same shape, bound
		{"INSERT INTO t_acct (id, bal, note) VALUES (10, 1.5, 'a'), (11, 1 + 2, 'b'), (12, -?, 'c'), (13, ? * 2, ?)",
			[]sqltypes.Value{sqltypes.NewInt(7), sqltypes.NewFloat(0.25), sqltypes.NewString("d?")}},
		{"INSERT INTO t_acct (id, bal, note) VALUES (14, 2.5, 'e'), (15, 2 + 2, 'f'), (16, -?, 'g'), (17, ? * 2, ?)",
			[]sqltypes.Value{sqltypes.NewInt(-1), sqltypes.NewInt(50), sqltypes.NewString("h")}},
	} {
		if r := mustExec(t, s, ins.sql, ins.args...); r.Affected != int64(2+2*(i/2)) {
			t.Fatalf("%q affected %d rows", ins.sql, r.Affected)
		}
	}
	got := fmt.Sprint(mustQuery(t, s, "SELECT id, bal, note FROM t_acct ORDER BY id"))
	want := "[(6, -3, x) (7, 5, y) (8, 6, q) (9, -4, p) (10, 1.5, a) (11, 3, b) (12, -7, c) (13, 0.5, d?) (14, 2.5, e) (15, 4, f) (16, 1, g) (17, 100, h)]"
	if got != want {
		t.Fatalf("table contents:\n got %s\nwant %s", got, want)
	}
	if hits := k.planCache.Stats().Hits; hits < 2 {
		t.Fatalf("the second execution of each shape should bind the kept plan: %d hits", hits)
	}
}

// TestGroupedStarIsRefusedBeforeAnyUnit: a grouped statement
// with a star projection has no partial and combine, its width being the
// table's. On two or more units the kernel answers with the typed
// rewrite.ErrUnsupported and sends nothing; on one unit the statement is
// pushed down as written.
func TestGroupedStarIsRefusedBeforeAnyUnit(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	seed(t, s, 8)
	sent := func() int64 { // statements the executor was handed, one unit or many
		m := k.executor.Metrics()
		return m["query_inline"] + m["query_fanout"]
	}
	for _, sql := range []string{
		"SELECT * FROM t_user GROUP BY age",
		"SELECT *, COUNT(*) FROM t_user WHERE uid IN (?, ?) GROUP BY uid",
		"SELECT t_user.* FROM t_user GROUP BY age ORDER BY COUNT(*) + 1",
	} {
		for run := 0; run <= sights.Keep; run++ { // compiled, kept, then bound
			before := sent()
			_, err := s.Execute(sql, sqltypes.NewInt(1), sqltypes.NewInt(2))
			var unitErr *exec.UnitError
			if !errors.Is(err, rewrite.ErrUnsupported) || errors.As(err, &unitErr) {
				t.Fatalf("%q run %d: %v, want rewrite.ErrUnsupported from the kernel", sql, run, err)
			}
			if sent() != before {
				t.Fatalf("%q run %d: units were sent before the refusal", sql, run)
			}
		}
	}
	// One unit: the node's own executor decides.
	before := sent()
	_, err := s.Execute("SELECT * FROM t_user WHERE uid = ? GROUP BY age", sqltypes.NewInt(1))
	if errors.Is(err, rewrite.ErrUnsupported) || sent() != before+1 {
		t.Fatalf("single-node statement was not pushed down: err %v, %d units sent", err, sent()-before)
	}
}

package sqlexec

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"shardingsphere/internal/sights"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
)

// tablesSession is a session over shards t_0..t_3 of one definition,
// row id in t_<id%4>, and t_odd, which has one more column.
func tablesSession(t *testing.T) *Session {
	t.Helper()
	s := NewProcessor(storage.NewEngine("ds0")).NewSession()
	for i := 0; i < 4; i++ {
		mustExec(t, s, fmt.Sprintf("CREATE TABLE t_%d (id INT PRIMARY KEY, k INT, v INT)", i))
		mustExec(t, s, fmt.Sprintf("CREATE INDEX idx_k ON t_%d (k)", i))
	}
	for id := 1; id <= 16; id++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t_%d (id, k, v) VALUES (%d, %d, %d)", id%4, id, id%3, id*7%13))
	}
	mustExec(t, s, "CREATE TABLE t_odd (id INT PRIMARY KEY, k INT, v INT, w INT)")
	mustExec(t, s, "CREATE TABLE t_noidx (id INT PRIMARY KEY, k INT, v INT)")
	return s
}

// TestExecuteTablesIsTheUnion: over a table list a statement answers what
// it answers over one table holding their rows — ordered, grouped,
// DISTINCT and limited alike — and counts the rows each table's scan kept,
// whichever shard the text names.
func TestExecuteTablesIsTheUnion(t *testing.T) {
	s := tablesSession(t)
	mustExec(t, s, "CREATE TABLE t_all (id INT PRIMARY KEY, k INT, v INT)")
	mustExec(t, s, "CREATE INDEX idx_k ON t_all (k)")
	for id := 1; id <= 16; id++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t_all (id, k, v) VALUES (%d, %d, %d)", id, id%3, id*7%13))
	}
	list := []string{"t_0", "t_1", "t_2", "t_3"}
	for _, q := range []string{
		"SELECT id, v FROM %s WHERE id BETWEEN 3 AND 13 ORDER BY v DESC, id",
		"SELECT k, COUNT(*), SUM(v) FROM %s GROUP BY k ORDER BY k",
		"SELECT DISTINCT k FROM %s ORDER BY k",
		"SELECT id FROM %s WHERE k = 1 ORDER BY id LIMIT 2, 3",
		"SELECT MAX(v) - MIN(v) FROM %s WHERE id IN (2, 5, 11)",
	} {
		want := mustExec(t, s, fmt.Sprintf(q, "t_all"))
		for _, text := range []string{"t_2", "t_3"} {
			got, _, err := s.ExecuteTables(fmt.Sprintf(q, text), list)
			if err != nil {
				t.Fatalf("%s over %v: %v", fmt.Sprintf(q, text), list, err)
			}
			sameResult(t, fmt.Sprintf(q, text)+" over the list", got, want)
		}
	}
	res, counts, err := s.ExecuteTables("SELECT id FROM t_0 WHERE id BETWEEN ? AND ?", []string{"t_3", "t_0", "t_1"}, sqltypes.NewInt(1), sqltypes.NewInt(9))
	if err != nil {
		t.Fatal(err)
	}
	// t_3 keeps 3 and 7, t_0 4 and 8, t_1 1, 5 and 9.
	if !slices.Equal(counts, []int{2, 2, 3}) || len(res.Rows) != 7 {
		t.Fatalf("table rows %v over %d rows, want [2 2 3] over 7", counts, len(res.Rows))
	}
}

// TestExecuteTablesRefusals enumerates what a node refuses to run over a
// table list, each with ErrTableList: another kind of statement, a join,
// FOR UPDATE, an empty list, a missing table, a table listed twice, and a
// table whose columns or indexes differ from the text's table.
func TestExecuteTablesRefusals(t *testing.T) {
	s := tablesSession(t)
	for _, c := range []struct {
		sql    string
		tables []string
	}{
		{"UPDATE t_0 SET v = 1", []string{"t_0", "t_1"}},
		{"INSERT INTO t_0 (id, k, v) VALUES (99, 0, 0)", []string{"t_0"}},
		{"SELECT a.id FROM t_0 a JOIN t_1 b ON a.id = b.id", []string{"t_0", "t_1"}},
		{"SELECT id FROM t_0 FOR UPDATE", []string{"t_0", "t_1"}},
		{"SELECT id FROM t_0", []string{}},
		{"SELECT id FROM t_0", []string{"t_0", "t_9"}},
		{"SELECT id FROM t_0", []string{"t_1", "t_2", "t_1"}},
		{"SELECT id FROM t_0", []string{"t_1", "t_odd"}},
		{"SELECT id FROM t_0 WHERE k = 1", []string{"t_1", "t_noidx"}},
	} {
		if _, _, err := s.ExecuteTables(c.sql, c.tables); !errors.Is(err, ErrTableList) {
			t.Errorf("%s over %v: %v, want ErrTableList", c.sql, c.tables, err)
		}
	}
	if _, _, err := s.ExecuteTables("SELECT id FROM t_0", []string{"t_9"}); !errors.Is(err, storage.ErrTableNotFound) {
		t.Errorf("a missing table: %v, want it to wrap storage.ErrTableNotFound", err)
	}
	// A refusal changes nothing: t_0 still holds its four rows.
	if res := mustExec(t, s, "SELECT COUNT(*) FROM t_0"); res.Rows[0][0].I != 4 {
		t.Fatalf("t_0 holds %v rows after the refusals", res.Rows[0][0])
	}
}

// The list is checked on every run, not only when the plan is compiled:
// after the text's plan is retained, an index only t_1 has refuses the
// list, and so does a dropped table.
func TestTableListFollowsDDL(t *testing.T) {
	s := tablesSession(t)
	sql, list := "SELECT id FROM t_0 WHERE k = ?", []string{"t_0", "t_1", "t_2"}
	for i := 0; i < 2*sights.Keep; i++ {
		if _, counts, err := s.ExecuteTables(sql, list, sqltypes.NewInt(1)); err != nil || len(counts) != 3 {
			t.Fatalf("run %d: %v %v", i, counts, err)
		}
	}
	mustExec(t, s, "CREATE INDEX idx_v ON t_1 (v)")
	if _, _, err := s.ExecuteTables(sql, list, sqltypes.NewInt(1)); !errors.Is(err, ErrTableList) {
		t.Fatalf("after an index on t_1 alone: %v, want ErrTableList", err)
	}
	mustExec(t, s, "DROP TABLE t_2")
	if _, _, err := s.ExecuteTables(sql, []string{"t_0", "t_2"}, sqltypes.NewInt(1)); !errors.Is(err, storage.ErrTableNotFound) {
		t.Fatalf("after dropping t_2: %v, want storage.ErrTableNotFound", err)
	}
}

package sqlexec

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"shardingsphere/internal/sights"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
)

func newTestSession(t *testing.T) *Session {
	t.Helper()
	e := storage.NewEngine("ds0")
	p := NewProcessor(e)
	return p.NewSession()
}

func mustExec(t *testing.T, s *Session, sql string, args ...sqltypes.Value) *Result {
	t.Helper()
	res, err := s.Execute(sql, args...)
	if err != nil {
		t.Fatalf("Execute(%q): %v", sql, err)
	}
	return res
}

func seedUsers(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, "CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(64), age INT)")
	mustExec(t, s, "INSERT INTO t_user (uid, name, age) VALUES (1, 'alice', 30), (2, 'bob', 25), (3, 'carol', 35), (4, 'dave', 25)")
}

func TestSelectAll(t *testing.T) {
	s := newTestSession(t)
	seedUsers(t, s)
	res := mustExec(t, s, "SELECT * FROM t_user")
	if len(res.Rows) != 4 || len(res.Columns) != 3 {
		t.Fatalf("rows=%d cols=%v", len(res.Rows), res.Columns)
	}
	// Full scans return rows in primary-key order.
	for i, r := range res.Rows {
		if r[0].I != int64(i+1) {
			t.Fatalf("pk order broken: %v", res.Rows)
		}
	}
}

func TestSelectWherePaths(t *testing.T) {
	cases := []struct {
		sql  string
		want int
	}{
		{"SELECT * FROM t_user WHERE uid = 2", 1},
		{"SELECT * FROM t_user WHERE uid IN (1, 3)", 2},
		{"SELECT * FROM t_user WHERE uid BETWEEN 2 AND 4", 3},
		{"SELECT * FROM t_user WHERE uid BETWEEN 1.5 AND '3'", 2},
		{"SELECT * FROM t_user WHERE uid BETWEEN 4 AND 2", 0},
		{"SELECT * FROM t_user WHERE uid >= 2 AND uid < 4", 2},
		{"SELECT * FROM t_user WHERE age = 25", 2},
		{"SELECT * FROM t_user WHERE name LIKE 'a%'", 1},
		{"SELECT * FROM t_user WHERE name LIKE '%o%'", 2},
		{"SELECT * FROM t_user WHERE age = 25 AND name = 'bob'", 1},
		{"SELECT * FROM t_user WHERE age = 25 OR age = 30", 3},
		{"SELECT * FROM t_user WHERE NOT (age = 25)", 2},
		{"SELECT * FROM t_user WHERE uid = 99", 0},
		{"SELECT * FROM t_user WHERE age IS NULL", 0},
		{"SELECT * FROM t_user WHERE age IS NOT NULL", 4},
	}
	// Without a secondary index, then with one whose leading column the
	// age predicates probe on its own.
	for _, index := range []string{"", "CREATE INDEX idx_age_name ON t_user (age, name)"} {
		s := newTestSession(t)
		seedUsers(t, s)
		if index != "" {
			mustExec(t, s, index)
		}
		for _, tc := range cases {
			res := mustExec(t, s, tc.sql)
			if len(res.Rows) != tc.want {
				t.Errorf("%s [%s]: want %d rows, got %d", tc.sql, index, tc.want, len(res.Rows))
			}
		}
	}
}

func TestSelectPlaceholders(t *testing.T) {
	s := newTestSession(t)
	seedUsers(t, s)
	res := mustExec(t, s, "SELECT name FROM t_user WHERE uid = ?", sqltypes.NewInt(2))
	if len(res.Rows) != 1 || res.Rows[0][0].S != "bob" {
		t.Fatalf("placeholder query: %v", res.Rows)
	}
	_, err := s.Execute("SELECT * FROM t_user WHERE uid = ?")
	if !errors.Is(err, ErrBadArgCount) {
		t.Fatalf("missing arg: %v", err)
	}
}

func TestSelectProjectionAndAlias(t *testing.T) {
	s := newTestSession(t)
	seedUsers(t, s)
	res := mustExec(t, s, "SELECT name AS n, age + 1 AS next_age FROM t_user WHERE uid = 1")
	if res.Columns[0] != "n" || res.Columns[1] != "next_age" {
		t.Fatalf("columns: %v", res.Columns)
	}
	if res.Rows[0][1].I != 31 {
		t.Fatalf("arith projection: %v", res.Rows[0])
	}
}

func TestSelectOrderLimit(t *testing.T) {
	s := newTestSession(t)
	seedUsers(t, s)
	res := mustExec(t, s, "SELECT uid FROM t_user ORDER BY age DESC, uid LIMIT 2")
	if res.Rows[0][0].I != 3 || res.Rows[1][0].I != 1 {
		t.Fatalf("order: %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT uid FROM t_user ORDER BY uid LIMIT 1, 2")
	if len(res.Rows) != 2 || res.Rows[0][0].I != 2 {
		t.Fatalf("offset: %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT uid FROM t_user ORDER BY 1 DESC LIMIT 1")
	if res.Rows[0][0].I != 4 {
		t.Fatalf("positional order: %v", res.Rows)
	}
}

func TestSelectDistinct(t *testing.T) {
	s := newTestSession(t)
	seedUsers(t, s)
	res := mustExec(t, s, "SELECT DISTINCT age FROM t_user")
	if len(res.Rows) != 3 {
		t.Fatalf("distinct: %v", res.Rows)
	}
}

func TestAggregates(t *testing.T) {
	s := newTestSession(t)
	seedUsers(t, s)
	res := mustExec(t, s, "SELECT COUNT(*), SUM(age), AVG(age), MIN(age), MAX(age) FROM t_user")
	r := res.Rows[0]
	if r[0].I != 4 || r[1].I != 115 || r[3].I != 25 || r[4].I != 35 {
		t.Fatalf("aggregates: %v", r)
	}
	if av := r[2].AsFloat(); av < 28.7 || av > 28.8 {
		t.Fatalf("avg: %v", r[2])
	}
	// Aggregate over empty set: COUNT 0, SUM NULL.
	res = mustExec(t, s, "SELECT COUNT(*), SUM(age) FROM t_user WHERE uid > 100")
	if res.Rows[0][0].I != 0 || !res.Rows[0][1].IsNull() {
		t.Fatalf("empty aggregates: %v", res.Rows[0])
	}
	res = mustExec(t, s, "SELECT COUNT(DISTINCT age) FROM t_user")
	if res.Rows[0][0].I != 3 {
		t.Fatalf("count distinct: %v", res.Rows[0])
	}
	// An aggregate nested in an expression makes the statement grouped,
	// in the projection and in ORDER BY alike.
	res = mustExec(t, s, "SELECT MAX(age) - MIN(age) FROM t_user")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 10 {
		t.Fatalf("nested aggregate: %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT age, MAX(uid) - MIN(uid) + ? FROM t_user GROUP BY age ORDER BY COUNT(*) + 1 DESC, age", sqltypes.NewInt(1))
	if got := fmt.Sprint(res.Rows); got != "[(25, 3) (30, 1) (35, 1)]" {
		t.Fatalf("grouped nested aggregates: %v", got)
	}
}

func TestGroupBy(t *testing.T) {
	s := newTestSession(t)
	seedUsers(t, s)
	res := mustExec(t, s, "SELECT age, COUNT(*) AS c FROM t_user GROUP BY age ORDER BY age")
	if len(res.Rows) != 3 {
		t.Fatalf("groups: %v", res.Rows)
	}
	if res.Rows[0][0].I != 25 || res.Rows[0][1].I != 2 {
		t.Fatalf("group row: %v", res.Rows[0])
	}
	// HAVING on an aggregate.
	res = mustExec(t, s, "SELECT age, COUNT(*) FROM t_user GROUP BY age HAVING COUNT(*) > 1")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 25 {
		t.Fatalf("having: %v", res.Rows)
	}
	// ORDER BY an aggregate.
	res = mustExec(t, s, "SELECT age FROM t_user GROUP BY age ORDER BY COUNT(*) DESC, age")
	if res.Rows[0][0].I != 25 {
		t.Fatalf("order by agg: %v", res.Rows)
	}
}

// TestGroupByKeysDoNotCollide: two rows whose GROUP BY values differ are
// two groups, whatever bytes their strings hold; these two read alike if
// each value's encoding were joined to the next with a NUL byte.
func TestGroupByKeysDoNotCollide(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE g (id INT PRIMARY KEY, a VARCHAR(8), b VARCHAR(8))")
	for i, r := range [][2]string{{"a\x00sQ", "R"}, {"a", "Q\x00sR"}} {
		mustExec(t, s, "INSERT INTO g (id, a, b) VALUES (?, ?, ?)", sqltypes.NewInt(int64(i)), sqltypes.NewString(r[0]), sqltypes.NewString(r[1]))
	}
	if res := mustExec(t, s, "SELECT COUNT(*) FROM g GROUP BY a, b"); fmt.Sprint(res.Rows) != "[(1) (1)]" {
		t.Fatalf("groups: %v, want two of one row", res.Rows)
	}
}

func TestGroupByPosition(t *testing.T) {
	s := newTestSession(t)
	seedUsers(t, s)
	// GROUP BY 1 groups by the first projection item, as GROUP BY age does.
	res := mustExec(t, s, "SELECT age, COUNT(*) FROM t_user GROUP BY 1 ORDER BY 1")
	if fmt.Sprint(res.Rows) != "[(25, 2) (30, 1) (35, 1)]" {
		t.Fatalf("GROUP BY 1: %v", res.Rows)
	}
	// A negative number is a constant, not a position: one group.
	res = mustExec(t, s, "SELECT COUNT(*) FROM t_user GROUP BY -1")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 4 {
		t.Fatalf("GROUP BY -1: %v", res.Rows)
	}
	// Positions outside the projection and a position naming an aggregate
	// are refused when the statement compiles, whether or not a row exists.
	for _, sql := range []string{
		"SELECT age, COUNT(*) FROM t_user GROUP BY 3",
		"SELECT age, COUNT(*) FROM t_user GROUP BY 0",
		"SELECT age, COUNT(*) FROM t_user GROUP BY 2",
		"SELECT age FROM t_user WHERE uid > 100 ORDER BY 2",
	} {
		if _, err := s.Execute(sql); !errors.Is(err, ErrUnknownColumn) {
			t.Errorf("%s: %v, want ErrUnknownColumn", sql, err)
		}
	}
}

func TestJoins(t *testing.T) {
	s := newTestSession(t)
	seedUsers(t, s)
	mustExec(t, s, "CREATE TABLE t_order (oid INT PRIMARY KEY, uid INT, amount INT)")
	mustExec(t, s, "INSERT INTO t_order VALUES (100, 1, 10), (101, 1, 20), (102, 2, 30), (103, 9, 40)")

	res := mustExec(t, s, "SELECT u.name, o.amount FROM t_user u JOIN t_order o ON u.uid = o.uid ORDER BY o.oid")
	if len(res.Rows) != 3 {
		t.Fatalf("inner join: %v", res.Rows)
	}
	if res.Rows[0][0].S != "alice" || res.Rows[2][1].I != 30 {
		t.Fatalf("join rows: %v", res.Rows)
	}

	res = mustExec(t, s, "SELECT u.name, o.oid FROM t_user u LEFT JOIN t_order o ON u.uid = o.uid ORDER BY u.uid")
	if len(res.Rows) != 5 { // alice×2, bob×1, carol pad, dave pad
		t.Fatalf("left join: %v", res.Rows)
	}
	var padded int
	for _, r := range res.Rows {
		if r[1].IsNull() {
			padded++
		}
	}
	if padded != 2 {
		t.Fatalf("left join padding: %v", res.Rows)
	}

	res = mustExec(t, s, "SELECT o.oid, u.name FROM t_user u RIGHT JOIN t_order o ON u.uid = o.uid ORDER BY o.oid")
	if len(res.Rows) != 4 || !res.Rows[3][1].IsNull() {
		t.Fatalf("right join: %v", res.Rows)
	}

	// Comma (cross) join with WHERE.
	res = mustExec(t, s, "SELECT COUNT(*) FROM t_user, t_order WHERE t_user.uid = t_order.uid")
	if res.Rows[0][0].I != 3 {
		t.Fatalf("cross+where: %v", res.Rows)
	}
	// Pure cartesian.
	res = mustExec(t, s, "SELECT COUNT(*) FROM t_user, t_order")
	if res.Rows[0][0].I != 16 {
		t.Fatalf("cartesian: %v", res.Rows)
	}
}

func TestJoinThreeTables(t *testing.T) {
	s := newTestSession(t)
	seedUsers(t, s)
	mustExec(t, s, "CREATE TABLE t_order (oid INT PRIMARY KEY, uid INT)")
	mustExec(t, s, "CREATE TABLE t_item (iid INT PRIMARY KEY, oid INT, sku VARCHAR(10))")
	mustExec(t, s, "INSERT INTO t_order VALUES (100, 1), (101, 2)")
	mustExec(t, s, "INSERT INTO t_item VALUES (1, 100, 'a'), (2, 100, 'b'), (3, 101, 'c')")
	res := mustExec(t, s, `SELECT u.name, i.sku FROM t_user u
		JOIN t_order o ON u.uid = o.uid
		JOIN t_item i ON o.oid = i.oid
		ORDER BY i.iid`)
	if len(res.Rows) != 3 || res.Rows[2][0].S != "bob" {
		t.Fatalf("3-way join: %v", res.Rows)
	}
}

func TestInsertUpdateDelete(t *testing.T) {
	s := newTestSession(t)
	seedUsers(t, s)
	res := mustExec(t, s, "INSERT INTO t_user VALUES (5, 'eve', 20)")
	if res.Affected != 1 {
		t.Fatalf("insert affected: %d", res.Affected)
	}
	res = mustExec(t, s, "UPDATE t_user SET age = age + 10 WHERE age = 25")
	if res.Affected != 2 {
		t.Fatalf("update affected: %d", res.Affected)
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM t_user WHERE age = 35")
	if res.Rows[0][0].I != 3 {
		t.Fatalf("after update: %v", res.Rows)
	}
	res = mustExec(t, s, "DELETE FROM t_user WHERE uid > 3")
	if res.Affected != 2 {
		t.Fatalf("delete affected: %d", res.Affected)
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM t_user")
	if res.Rows[0][0].I != 3 {
		t.Fatalf("after delete: %v", res.Rows)
	}
}

func TestInsertColumnSubsetAndAutoInc(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v VARCHAR(10), n INT)")
	res := mustExec(t, s, "INSERT INTO t (v) VALUES ('a'), ('b')")
	if res.Affected != 2 || res.LastInsertID != 2 {
		t.Fatalf("auto inc insert: %+v", res)
	}
	out := mustExec(t, s, "SELECT id, v, n FROM t ORDER BY id")
	if out.Rows[0][0].I != 1 || !out.Rows[0][2].IsNull() {
		t.Fatalf("subset insert: %v", out.Rows)
	}
}

func TestTransactionCommitRollback(t *testing.T) {
	s := newTestSession(t)
	seedUsers(t, s)
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE t_user SET age = 99 WHERE uid = 1")
	// Another session must not see the uncommitted change.
	s2 := s.proc.NewSession()
	res := mustExec(t, s2, "SELECT age FROM t_user WHERE uid = 1")
	if res.Rows[0][0].I != 30 {
		t.Fatalf("dirty read: %v", res.Rows)
	}
	mustExec(t, s, "COMMIT")
	res = mustExec(t, s2, "SELECT age FROM t_user WHERE uid = 1")
	if res.Rows[0][0].I != 99 {
		t.Fatalf("commit lost: %v", res.Rows)
	}

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "DELETE FROM t_user")
	mustExec(t, s, "ROLLBACK")
	res = mustExec(t, s, "SELECT COUNT(*) FROM t_user")
	if res.Rows[0][0].I != 4 {
		t.Fatalf("rollback lost rows: %v", res.Rows)
	}
}

// TestFailedStatementInTransactionLeavesNothing: inside a transaction a
// write that fails part-way leaves none of its rows and the transaction
// goes on, as MySQL's statement rollback does; SAVEPOINT and ROLLBACK TO
// undo to a name, index entries included.
func TestFailedStatementInTransactionLeavesNothing(t *testing.T) {
	s := newTestSession(t)
	seedUsers(t, s)
	mustExec(t, s, "CREATE INDEX idx_age ON t_user (age)")
	rows := func(sql string) string {
		t.Helper()
		return fmt.Sprint(mustExec(t, s, sql).Rows)
	}
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE t_user SET age = 40 WHERE uid = 2")
	if _, err := s.Execute("INSERT INTO t_user (uid, name, age) VALUES (5, 'eve', 25), (6, 'fay', 25), (1, 'dup', 25)"); !errors.Is(err, storage.ErrDuplicateKey) {
		t.Fatalf("want the duplicate key, got %v", err)
	}
	// The row the failed UPDATE wrote twice keeps the earlier statement's
	// version; the DELETE's rows are all back.
	if _, err := s.Execute("UPDATE t_user SET age = CASE WHEN uid = 4 THEN 'x' ELSE age + 1 END"); err == nil {
		t.Fatal("an UPDATE storing 'x' in an INT column succeeded")
	}
	mustExec(t, s, "INSERT INTO t_user (uid, name, age) VALUES (7, 'gus', 25)")
	mustExec(t, s, "SAVEPOINT a")
	mustExec(t, s, "DELETE FROM t_user WHERE age = 25")
	mustExec(t, s, "INSERT INTO t_user (uid, name, age) VALUES (4, 'dan', 26)")
	mustExec(t, s, "SAVEPOINT b")
	mustExec(t, s, "UPDATE t_user SET age = 41 WHERE uid = 2")
	mustExec(t, s, "ROLLBACK TO SAVEPOINT a")
	if _, err := s.Execute("ROLLBACK TO b"); !errors.Is(err, ErrNoSavepoint) {
		t.Fatalf("a savepoint set after the one rolled back to: %v", err)
	}
	mustExec(t, s, "ROLLBACK TO a")
	mustExec(t, s, "COMMIT")
	want := "[(1, alice, 30) (2, bob, 40) (3, carol, 35) (4, dave, 25) (7, gus, 25)]"
	if got := rows("SELECT uid, name, age FROM t_user ORDER BY uid"); got != want {
		t.Fatalf("after COMMIT: %s, want %s", got, want)
	}
	if got := rows("SELECT uid FROM t_user WHERE age = 25 ORDER BY uid"); got != "[(4) (7)]" {
		t.Fatalf("the index on age reads %s", got)
	}
	if got := rows("SELECT uid FROM t_user WHERE age = 26 OR age = 41"); got != "[]" {
		t.Fatalf("the index keeps undone versions: %s", got)
	}
	if _, err := s.Execute("SAVEPOINT c"); !errors.Is(err, ErrNoTransaction) {
		t.Fatalf("SAVEPOINT outside a transaction: %v", err)
	}
	if _, err := s.Execute("ROLLBACK TO a"); !errors.Is(err, ErrNoSavepoint) {
		t.Fatalf("a savepoint of a finished transaction: %v", err)
	}
}

func TestBeginTwiceFails(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "BEGIN")
	if _, err := s.Execute("BEGIN"); !errors.Is(err, ErrInTransaction) {
		t.Fatalf("nested begin: %v", err)
	}
	mustExec(t, s, "ROLLBACK")
}

func TestXAThroughSQL(t *testing.T) {
	s := newTestSession(t)
	seedUsers(t, s)
	mustExec(t, s, "XA BEGIN 'g1'")
	mustExec(t, s, "UPDATE t_user SET age = 50 WHERE uid = 1")
	mustExec(t, s, "XA END 'g1'")
	mustExec(t, s, "XA PREPARE 'g1'")
	res := mustExec(t, s, "XA RECOVER")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "g1" {
		t.Fatalf("xa recover: %v", res.Rows)
	}
	// Visible only after XA COMMIT.
	out := mustExec(t, s, "SELECT age FROM t_user WHERE uid = 1")
	if out.Rows[0][0].I != 30 {
		t.Fatalf("prepared visible: %v", out.Rows)
	}
	mustExec(t, s, "XA COMMIT 'g1'")
	out = mustExec(t, s, "SELECT age FROM t_user WHERE uid = 1")
	if out.Rows[0][0].I != 50 {
		t.Fatalf("xa commit lost: %v", out.Rows)
	}
}

// TestXABoundVerbs: the bound form reads its xid from the one argument,
// and a missing, second, non-string or empty argument is a typed error
// that changes nothing.
func TestXABoundVerbs(t *testing.T) {
	s := newTestSession(t)
	seedUsers(t, s)
	g := sqltypes.NewString("g3")
	mustExec(t, s, "XA BEGIN ?", g)
	mustExec(t, s, "UPDATE t_user SET age = 60 WHERE uid = 3")
	for _, c := range []struct {
		args []sqltypes.Value
		want error
	}{
		{nil, ErrBadArgCount},
		{[]sqltypes.Value{g, g}, ErrBadArgCount},
		{[]sqltypes.Value{sqltypes.NewInt(3)}, ErrBadXID},
		{[]sqltypes.Value{sqltypes.Null}, ErrBadXID},
		{[]sqltypes.Value{sqltypes.NewString("")}, ErrBadXID},
	} {
		if _, err := s.Execute("XA END ?", c.args...); !errors.Is(err, c.want) {
			t.Fatalf("XA END ? with %v: %v, want %v", c.args, err, c.want)
		}
	}
	if _, err := s.Execute("XA RECOVER", g); !errors.Is(err, ErrBadArgCount) {
		t.Fatalf("XA RECOVER with an argument: %v", err)
	}
	if _, err := s.Execute("XA COMMIT 'g3'", g); !errors.Is(err, ErrBadArgCount) {
		t.Fatalf("literal verb with an argument: %v", err)
	}
	mustExec(t, s, "XA END ?", g)
	mustExec(t, s, "XA PREPARE ?", g)
	if res := mustExec(t, s, "XA RECOVER"); len(res.Rows) != 1 || res.Rows[0][0].S != "g3" {
		t.Fatalf("xa recover: %v", res.Rows)
	}
	mustExec(t, s, "XA COMMIT ?", g)
	if out := mustExec(t, s, "SELECT age FROM t_user WHERE uid = 3"); out.Rows[0][0].I != 60 {
		t.Fatalf("bound xa commit lost: %v", out.Rows)
	}
}

// TestNodeKeepsBoundVerbs: 200 XA transactions with distinct xids parse
// each verb text at most sights.Keep times, and leave no sight count per
// xid behind.
func TestNodeKeepsBoundVerbs(t *testing.T) {
	p := NewProcessor(storage.NewEngine("ds0"))
	s := p.NewSession()
	verbs := []string{"XA BEGIN ?", "XA END ?", "XA PREPARE ?", "XA COMMIT ?", "XA ROLLBACK ?"}
	before := sqlparser.ParseCount()
	for i := 0; i < 200; i++ {
		xid := sqltypes.NewString(fmt.Sprintf("gtx-%d", i))
		last := verbs[3+i%2] // alternately commit and roll back the prepared branch
		for _, v := range append(verbs[:3:3], last) {
			mustExec(t, s, v, xid)
		}
	}
	got, max := sqlparser.ParseCount()-before, uint64(sights.Keep*len(verbs))
	if got > max {
		t.Fatalf("200 transactions parsed %d times, want at most %d", got, max)
	}
	if n := p.Stats().Parses.Load(); uint64(n) != got {
		t.Fatalf("the node's parse counter reads %d, the parser ran %d times", n, got)
	}
	if n := p.sights.Len(); n > len(verbs) {
		t.Fatalf("the processor counts sights of %d texts after 200 xids", n)
	}
}

func TestXARollbackBeforePrepare(t *testing.T) {
	s := newTestSession(t)
	seedUsers(t, s)
	mustExec(t, s, "XA BEGIN 'g2'")
	mustExec(t, s, "UPDATE t_user SET age = 77 WHERE uid = 2")
	mustExec(t, s, "XA ROLLBACK 'g2'")
	out := mustExec(t, s, "SELECT age FROM t_user WHERE uid = 2")
	if out.Rows[0][0].I != 25 {
		t.Fatalf("xa rollback before prepare: %v", out.Rows)
	}
}

func TestSelectForUpdateLocksRows(t *testing.T) {
	s := newTestSession(t)
	seedUsers(t, s)
	s.engine.SetLockTimeout(50_000_000) // 50ms
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "SELECT * FROM t_user WHERE uid = 1 FOR UPDATE")
	s2 := s.proc.NewSession()
	_, err := s2.Execute("UPDATE t_user SET age = 1 WHERE uid = 1")
	if !errors.Is(err, storage.ErrLockTimeout) {
		t.Fatalf("for update did not lock: %v", err)
	}
	mustExec(t, s, "COMMIT")
	mustExec(t, s2, "UPDATE t_user SET age = 1 WHERE uid = 1")
}

// TestConcurrentTransfersConserveSum: two sessions move amounts between two
// accounts in autocommit, in BEGIN … COMMIT and in XA, touching the lower
// id first. Each UPDATE computes its SET on the row it locks, so the sum
// stays exactly where it started.
func TestConcurrentTransfersConserveSum(t *testing.T) {
	frames := map[string][2][]string{ // statements before and after the two UPDATEs
		"autocommit": {},
		"begin":      {{"BEGIN"}, {"COMMIT"}},
		"xa":         {{"XA BEGIN ?"}, {"XA END ?", "XA PREPARE ?", "XA COMMIT ?"}},
	}
	for mode, frame := range frames {
		s := newTestSession(t)
		mustExec(t, s, "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
		mustExec(t, s, "INSERT INTO acct (id, bal) VALUES (1, 1000), (2, 1000)")
		errs := make(chan error, 2)
		for w := int64(0); w < 2; w++ {
			go func() {
				sess := s.proc.NewSession()
				defer sess.Close()
				for i := int64(0); i < 500; i++ {
					xid := sqltypes.NewString(fmt.Sprint("x", w, "-", i))
					amount := sqltypes.NewInt((1 + i%7) * (1 - 2*w)) // session 1 moves money back
					transfer := []string{"UPDATE acct SET bal = bal - ? WHERE id = 1", "UPDATE acct SET bal = bal + ? WHERE id = 2"}
					for _, sql := range slices.Concat(frame[0], transfer, frame[1]) {
						var args []sqltypes.Value
						if strings.HasPrefix(sql, "UPDATE") {
							args = []sqltypes.Value{amount}
						} else if strings.Contains(sql, "?") {
							args = []sqltypes.Value{xid}
						}
						if _, err := sess.Execute(sql, args...); err != nil {
							errs <- fmt.Errorf("%s: %s: %w", mode, sql, err)
							return
						}
					}
				}
				errs <- nil
			}()
		}
		for w := 0; w < 2; w++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		if res := mustExec(t, s, "SELECT SUM(bal) FROM acct"); res.Rows[0][0].I != 2000 {
			t.Errorf("%s: sum %v, want 2000", mode, res.Rows[0][0])
		}
	}
}

// TestRepeatedInKeyReachesRowOnce: an IN list that names a key twice, in
// its text or through equal arguments, reads, updates and deletes the row
// once.
func TestRepeatedInKeyReachesRowOnce(t *testing.T) {
	s := newTestSession(t)
	seedUsers(t, s)
	one := sqltypes.NewInt(1)
	if res := mustExec(t, s, "SELECT uid FROM t_user WHERE uid IN (1, 1)"); len(res.Rows) != 1 {
		t.Fatalf("select: %v", res.Rows)
	}
	if res := mustExec(t, s, "UPDATE t_user SET age = age + 1 WHERE uid IN (1, 1)"); res.Affected != 1 {
		t.Fatalf("update affected %d", res.Affected)
	}
	if res := mustExec(t, s, "UPDATE t_user SET age = age + 1 WHERE uid IN (?, ?)", one, one); res.Affected != 1 {
		t.Fatalf("update with args affected %d", res.Affected)
	}
	if res := mustExec(t, s, "SELECT age FROM t_user WHERE uid = 1"); res.Rows[0][0].I != 32 {
		t.Fatalf("age %v, want 30 + 2", res.Rows[0][0])
	}
	if res := mustExec(t, s, "DELETE FROM t_user WHERE uid IN (?, ?, 2)", one, one); res.Affected != 2 {
		t.Fatalf("delete affected %d", res.Affected)
	}
}

func TestDDLThroughSQL(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE a (id INT PRIMARY KEY)")
	mustExec(t, s, "CREATE TABLE IF NOT EXISTS a (id INT PRIMARY KEY)")
	if _, err := s.Execute("CREATE TABLE a (id INT PRIMARY KEY)"); err == nil {
		t.Fatal("duplicate create must fail")
	}
	mustExec(t, s, "CREATE INDEX idx_id2 ON a (id)")
	res := mustExec(t, s, "SHOW TABLES")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "a" {
		t.Fatalf("show tables: %v", res.Rows)
	}
	mustExec(t, s, "DROP TABLE a")
	mustExec(t, s, "DROP TABLE IF EXISTS a")
	if _, err := s.Execute("DROP TABLE a"); err == nil {
		t.Fatal("drop missing must fail")
	}
}

func TestTruncateThroughSQL(t *testing.T) {
	s := newTestSession(t)
	seedUsers(t, s)
	mustExec(t, s, "TRUNCATE TABLE t_user")
	res := mustExec(t, s, "SELECT COUNT(*) FROM t_user")
	if res.Rows[0][0].I != 0 {
		t.Fatalf("truncate: %v", res.Rows)
	}
}

func TestSetAndVars(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "SET autocommit = 1")
	if v, ok := s.vars["autocommit"]; !ok || v.I != 1 {
		t.Fatalf("vars: %v", s.vars)
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	s := newTestSession(t)
	res := mustExec(t, s, "SELECT 1 + 2 AS three, 'x'")
	if res.Rows[0][0].I != 3 || res.Rows[0][1].S != "x" {
		t.Fatalf("no-from select: %v", res.Rows)
	}
}

func TestCaseExpression(t *testing.T) {
	s := newTestSession(t)
	seedUsers(t, s)
	res := mustExec(t, s, "SELECT name, CASE WHEN age >= 30 THEN 'senior' ELSE 'junior' END AS grade FROM t_user ORDER BY uid")
	if res.Rows[0][1].S != "senior" || res.Rows[1][1].S != "junior" {
		t.Fatalf("case: %v", res.Rows)
	}
}

func TestScalarFunctions(t *testing.T) {
	s := newTestSession(t)
	res := mustExec(t, s, "SELECT ABS(-5), LENGTH('abc'), UPPER('ab'), LOWER('AB'), COALESCE(NULL, 7), CONCAT('a', 'b')")
	r := res.Rows[0]
	if r[0].I != 5 || r[1].I != 3 || r[2].S != "AB" || r[3].S != "ab" || r[4].I != 7 || r[5].S != "ab" {
		t.Fatalf("scalars: %v", r)
	}
}

func TestNullSemantics(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "INSERT INTO t VALUES (1, NULL), (2, 5)")
	// NULL = NULL is not true.
	res := mustExec(t, s, "SELECT COUNT(*) FROM t WHERE v = NULL")
	if res.Rows[0][0].I != 0 {
		t.Fatalf("null equality: %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM t WHERE v IS NULL")
	if res.Rows[0][0].I != 1 {
		t.Fatalf("is null: %v", res.Rows)
	}
	// Aggregates skip NULLs.
	res = mustExec(t, s, "SELECT COUNT(v), SUM(v) FROM t")
	if res.Rows[0][0].I != 1 || res.Rows[0][1].I != 5 {
		t.Fatalf("null aggregates: %v", res.Rows)
	}
}

func TestErrorPaths(t *testing.T) {
	s := newTestSession(t)
	seedUsers(t, s)
	for _, sql := range []string{
		"SELECT * FROM missing",
		"SELECT nosuch FROM t_user",
		"INSERT INTO t_user (bad) VALUES (1)",
		"UPDATE t_user SET bad = 1",
		"SELECT NOSUCHFUNC(uid) FROM t_user",
	} {
		if _, err := s.Execute(sql); err == nil {
			t.Errorf("%s: expected error", sql)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	s := newTestSession(t)
	seedUsers(t, s)
	mustExec(t, s, "CREATE TABLE t2 (uid INT PRIMARY KEY)")
	mustExec(t, s, "INSERT INTO t2 VALUES (1)")
	_, err := s.Execute("SELECT uid FROM t_user, t2")
	if !errors.Is(err, ErrAmbiguousColumn) {
		t.Fatalf("ambiguous: %v", err)
	}
}

// TestStatementCache: an entry is kept from its text's sights.Keep-th sight.
func TestStatementCache(t *testing.T) {
	p := NewProcessor(storage.NewEngine("ds0"))
	parse := func(sql string) *Stmt {
		t.Helper()
		st, err := p.parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	s1, s2, s3, s4 := parse("SELECT 1"), parse("SELECT 1"), parse("SELECT 1"), parse("SELECT 1")
	if s1 == s2 || s2 == s3 || s3 != s4 {
		t.Fatalf("want the entry kept from sight %d", sights.Keep)
	}
	// One-shot texts leave a hash behind, never an entry, and the text
	// that repeats stays.
	for i := 0; i < 3*cacheLimit; i++ {
		parse(fmt.Sprintf("SELECT %d", i+2))
	}
	if len(p.cache) != 1 || p.sights.Len() > cacheLimit || parse("SELECT 1") != s4 {
		t.Fatalf("after a storm of one-shot texts: %d kept, %d hashes", len(p.cache), p.sights.Len())
	}
	// A repeating working set as large as the cache is admitted whole on
	// pass sights.Keep and is all hits from the next on.
	p = NewProcessor(storage.NewEngine("ds0"))
	kept := make([]*Stmt, cacheLimit)
	for pass := 1; pass <= sights.Keep+1; pass++ {
		for i := range kept {
			st := parse(fmt.Sprintf("SELECT %d", i))
			if pass > sights.Keep && st != kept[i] {
				t.Fatalf("text %d parsed again on pass %d", i, pass)
			}
			kept[i] = st
		}
	}
	if len(p.cache) != cacheLimit || p.sights.Len() != 0 {
		t.Fatalf("after %d passes over %d texts: %d kept, %d hashes", sights.Keep+1, cacheLimit, len(p.cache), p.sights.Len())
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_l_o", true},
		{"hello", "h_x_o", false},
		{"hello", "", false},
		{"", "%", true},
		{"abc", "a%b%c", true},
		{"abc", "%%%", true},
		{"abc", "_b_", true},
		{"ab", "_b_", false},
	}
	for _, tc := range cases {
		if got := likeMatch(tc.s, tc.p); got != tc.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", tc.s, tc.p, got, tc.want)
		}
	}
}

func TestLargeScanAndRangeQuery(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE big (id INT PRIMARY KEY, k INT)")
	for i := 0; i < 50; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO big VALUES (%d, %d)", i, i%7))
	}
	res := mustExec(t, s, "SELECT SUM(k) FROM big WHERE id BETWEEN 10 AND 19")
	want := int64(0)
	for i := 10; i <= 19; i++ {
		want += int64(i % 7)
	}
	if res.Rows[0][0].I != want {
		t.Fatalf("range sum: %v want %d", res.Rows[0][0], want)
	}
}

// TestWriteStoresTheColumnKind: a written value is coerced to its column's
// kind, so '020' stored in an INT key is the row of 20; a value the kind
// refuses fails the statement with sqltypes.ErrCoerce and stores nothing.
func TestWriteStoresTheColumnKind(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, k VARCHAR(8), v DOUBLE)")
	mustExec(t, s, "INSERT INTO t (id, k, v) VALUES ('020', 5, 2)")
	res := mustExec(t, s, "SELECT id, k, v FROM t WHERE id = 20")
	want := sqltypes.Row{sqltypes.NewInt(20), sqltypes.NewString("5"), sqltypes.NewFloat(2)}
	if len(res.Rows) != 1 || !slices.Equal(res.Rows[0], want) {
		t.Fatalf("rows %v, want %v", res.Rows, want)
	}
	for _, sql := range []string{
		"INSERT INTO t (id, k, v) VALUES (21, 'abc', 'abc')",
		"INSERT INTO t (id, k, v) VALUES (2.5, 'abc', 2.7)",
		"UPDATE t SET v = 'x' WHERE id = 20",
	} {
		if _, err := s.Execute(sql); !errors.Is(err, sqltypes.ErrCoerce) {
			t.Errorf("%s: %v, want sqltypes.ErrCoerce", sql, err)
		}
	}
	if res := mustExec(t, s, "SELECT id, k, v FROM t"); len(res.Rows) != 1 || !slices.Equal(res.Rows[0], want) {
		t.Fatalf("after the refused writes: %v, want only %v", res.Rows, want)
	}
}

// TestVarcharKeyPathsMatchFullScan: on a VARCHAR primary key and a VARCHAR
// secondary index holding '7', '07', '7.0', ' 7', '8' and '10', a number
// compares with each value as its number. The point, IN, range and index
// paths must find what the full-scan form (c + 0) finds, though each tree
// is in string order.
func TestVarcharKeyPathsMatchFullScan(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE s (c VARCHAR(8) PRIMARY KEY, n VARCHAR(8))")
	mustExec(t, s, "CREATE INDEX idx_n ON s (n)")
	for _, v := range []string{"7", "07", "7.0", " 7", "8", "10"} {
		mustExec(t, s, "INSERT INTO s (c, n) VALUES (?, ?)", sqltypes.NewString(v), sqltypes.NewString(v))
	}
	tbl, err := s.engine.Table("s")
	if err != nil {
		t.Fatal(err)
	}
	seven, eight := sqltypes.NewInt(7), sqltypes.NewInt(8)
	for _, c := range []struct {
		path       accessKind
		cond, scan string
		args       []sqltypes.Value
	}{
		{accessPKPoint, "c = 7", "c + 0 = 7", nil},
		{accessPKPoint, "c = ?", "c + 0 = ?", []sqltypes.Value{seven}},
		{accessPKPoint, "c IN (7, 8)", "c + 0 IN (7, 8)", nil},
		{accessPKPoint, "c IN (?, ?)", "c + 0 IN (?, ?)", []sqltypes.Value{seven, eight}},
		{accessPKRange, "c >= 8", "c + 0 >= 8", nil},
		{accessPKRange, "c BETWEEN ? AND ?", "c + 0 BETWEEN ? AND ?", []sqltypes.Value{seven, eight}},
		{accessIndex, "n = 7", "n + 0 = 7", nil},
		{accessIndex, "n = ?", "n + 0 = ?", []sqltypes.Value{seven}},
		{accessPKPoint, "c = '07'", "c = '07' AND c + 0 = c + 0", nil},
	} {
		where, err := sqlparser.Parse("SELECT c FROM s WHERE " + c.cond)
		if err != nil {
			t.Fatal(err)
		}
		cols := tableCols{quals: []string{"s"}, schema: tbl.Schema()}
		if shape := shapeAccess(tbl, &cols, splitConjuncts(where.(*sqlparser.SelectStmt).Where)); shape.kind != c.path {
			t.Fatalf("%s: access path %d, want %d", c.cond, shape.kind, c.path)
		}
		got := mustExec(t, s, "SELECT c FROM s WHERE "+c.cond+" ORDER BY c", c.args...)
		want := mustExec(t, s, "SELECT c FROM s WHERE "+c.scan+" ORDER BY c", c.args...)
		if !slices.EqualFunc(got.Rows, want.Rows, slices.Equal[sqltypes.Row]) || len(want.Rows) == 0 {
			t.Errorf("WHERE %s %v: %v; the full scan finds %v", c.cond, c.args, got.Rows, want.Rows)
		}
	}
}

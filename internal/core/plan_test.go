package core

import (
	"fmt"
	"testing"

	"shardingsphere/internal/resource"
	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sights"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/transaction"
)

// nodeKeepSights is the sight from which an embedded data node keeps a
// statement text: warming a shape takes that many executions per
// actual-table text before nothing on its path parses.
const nodeKeepSights = sights.Keep

// parses counts parser invocations while fn runs.
func parses(fn func()) uint64 {
	before := sqlparser.ParseCount()
	fn()
	return sqlparser.ParseCount() - before
}

// planCounts runs fn and returns the plan-cache hits and misses it counted.
func planCounts(k *Kernel, fn func()) [2]uint64 {
	before := k.planCache.Stats()
	fn()
	after := k.planCache.Stats()
	return [2]uint64{after.Hits - before.Hits, after.Misses - before.Misses}
}

func TestPlanCacheZeroParseOnRepeatedShapes(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	seed(t, s, 10)

	// Warm the shape across every shard: the first execution compiles the
	// plan (one parse of the normalized key), and the embedded data nodes
	// parse each distinct actual-table text until they keep it in their
	// own prepared-statement caches.
	warm := parses(func() {
		for i := 0; i < nodeKeepSights; i++ {
			for uid := 1; uid <= 4; uid++ {
				mustQuery(t, s, fmt.Sprintf("SELECT name FROM t_user WHERE uid = %d", uid))
			}
		}
	})
	if warm == 0 {
		t.Fatal("cold executions should parse")
	}
	// Same shape, different literals: the parser must not run at all.
	n := parses(func() {
		for uid := 5; uid <= 10; uid++ {
			rows := mustQuery(t, s, fmt.Sprintf("SELECT name FROM t_user WHERE uid = %d", uid))
			if len(rows) != 1 || rows[0][0].S != fmt.Sprintf("user%d", uid) {
				t.Fatalf("uid %d: %v", uid, rows)
			}
		}
	})
	if n != 0 {
		t.Fatalf("hot shape parsed %d times, want 0", n)
	}
	// Placeholder form shares the shape with the literal form.
	n = parses(func() {
		rows := mustQuery(t, s, "SELECT name FROM t_user WHERE uid = ?", sqltypes.NewInt(3))
		if len(rows) != 1 || rows[0][0].S != "user3" {
			t.Fatalf("placeholder exec: %v", rows)
		}
	})
	if n != 0 {
		t.Fatalf("placeholder variant parsed %d times, want 0", n)
	}
}

// TestPlanCacheInsertBindsWithoutParseOrClone: a kept INSERT — one row, or
// rows that split across shards — executes by binding alone: the parser
// does not run and no AST is copied.
func TestPlanCacheInsertBindsWithoutParseOrClone(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	const one = "INSERT INTO t_user (uid, name, age) VALUES (?, ?, ?)"
	const two = "INSERT INTO t_user (uid, name, age) VALUES (?, ?, ?), (?, ?, ?)"
	row := func(uid int) []sqltypes.Value {
		return []sqltypes.Value{sqltypes.NewInt(int64(uid)), sqltypes.NewString(fmt.Sprintf("user%d", uid)), sqltypes.NewInt(20)}
	}
	// Warm: both shapes compiled, and every shard's data node has kept its
	// unit text (a split two-row INSERT sends each shard the one-row text)
	// and the BEGIN and COMMIT of the transaction a split write runs in.
	uid := 1
	for ; uid <= 4*nodeKeepSights; uid++ {
		mustExec(t, s, one, row(uid)...)
	}
	for i := 0; i < nodeKeepSights; i++ {
		mustExec(t, s, two, append(row(uid), row(uid+1)...)...)
		uid += 2
	}
	n := parses(func() {
		for i := 0; i < 4; i++ {
			mustExec(t, s, one, row(uid)...)
			if r := mustExec(t, s, two, append(row(uid+1), row(uid+2)...)...); r.Affected != 2 {
				t.Fatalf("split insert affected %d rows", r.Affected)
			}
			uid += 3
		}
	})
	if n != 0 {
		t.Fatalf("kept INSERT shapes parsed %d times, want 0", n)
	}
	// Only a statement compiled for one execution is copied (the key
	// generator's and the features' rewrites): both shapes keep a
	// compiled route, which binds in place.
	for _, sql := range []string{one, two} {
		if cachedPlan(t, k, sql).route == nil {
			t.Fatalf("%q keeps no compiled route", sql)
		}
	}
	if rows := mustQuery(t, s, "SELECT COUNT(*) FROM t_user"); rows[0][0].I != int64(uid-1) {
		t.Fatalf("%v rows, want %d", rows, uid-1)
	}
}

func TestPlanCacheSharedAcrossSessions(t *testing.T) {
	k := newKernel(t, 2, 4)
	s1 := k.NewSession()
	seed(t, s1, 5)
	for i := 0; i < nodeKeepSights; i++ {
		mustQuery(t, s1, "SELECT name FROM t_user WHERE uid = 1") // warm (shard 1)
	}

	s2 := k.NewSession()
	n := parses(func() {
		// uid 5 lands on the warmed shard; only the kernel could parse here.
		rows := mustQuery(t, s2, "SELECT name FROM t_user WHERE uid = 5")
		if len(rows) != 1 || rows[0][0].S != "user5" {
			t.Fatalf("cross-session: %v", rows)
		}
	})
	if n != 0 {
		t.Fatalf("second session parsed %d times; plans must be shared", n)
	}
}

func TestPlanCacheCorrectAcrossShards(t *testing.T) {
	// Every uid routes through the same cached plan to a different shard;
	// updates and deletes must hit the same rows.
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	seed(t, s, 16)
	for uid := 1; uid <= 16; uid++ {
		rows := mustQuery(t, s, "SELECT name FROM t_user WHERE uid = ?", sqltypes.NewInt(int64(uid)))
		if len(rows) != 1 || rows[0][0].S != fmt.Sprintf("user%d", uid) {
			t.Fatalf("uid %d: %v", uid, rows)
		}
	}
	for uid := 1; uid <= 16; uid++ {
		if r := mustExec(t, s, "UPDATE t_user SET age = ? WHERE uid = ?",
			sqltypes.NewInt(int64(100+uid)), sqltypes.NewInt(int64(uid))); r.Affected != 1 {
			t.Fatalf("update uid %d affected %d", uid, r.Affected)
		}
	}
	for uid := 1; uid <= 16; uid++ {
		rows := mustQuery(t, s, "SELECT age FROM t_user WHERE uid = ?", sqltypes.NewInt(int64(uid)))
		if rows[0][0].I != int64(100+uid) {
			t.Fatalf("uid %d age %v", uid, rows)
		}
	}
	if r := mustExec(t, s, "DELETE FROM t_user WHERE uid = ?", sqltypes.NewInt(7)); r.Affected != 1 {
		t.Fatalf("delete affected %d", r.Affected)
	}
	if rows := mustQuery(t, s, "SELECT COUNT(*) FROM t_user"); rows[0][0].I != 15 {
		t.Fatalf("count after delete: %v", rows)
	}
}

func TestPlanCacheMultiNodeShapes(t *testing.T) {
	// Shapes that route to many nodes bind the same kept plan — still zero
	// parses on the hot path.
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	seed(t, s, 12)
	for i := 0; i < nodeKeepSights; i++ {
		mustQuery(t, s, "SELECT COUNT(*) FROM t_user WHERE age > 0") // warm
	}
	n := parses(func() {
		rows := mustQuery(t, s, "SELECT COUNT(*) FROM t_user WHERE age > 200")
		if rows[0][0].I != 0 {
			t.Fatalf("broadcast count: %v", rows)
		}
		rows = mustQuery(t, s, "SELECT COUNT(*) FROM t_user WHERE age > 1")
		if rows[0][0].I != 12 {
			t.Fatalf("broadcast count: %v", rows)
		}
	})
	if n != 0 {
		t.Fatalf("multi-node hot shape parsed %d times", n)
	}
}

func TestPlanCacheForUpdateBypassInTransaction(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	seed(t, s, 4)
	s.SetTransactionType(transaction.XA)
	mustExec(t, s, "BEGIN")
	// Warm the shape outside suspicion: still inside the tx, each locking
	// read must take the full pipeline (parse every time).
	for i := 0; i < 3; i++ {
		n := parses(func() { mustQuery(t, s, fmt.Sprintf("SELECT name FROM t_user WHERE uid = %d FOR UPDATE", i+1)) })
		if n == 0 {
			t.Fatalf("iteration %d: FOR UPDATE inside XA must bypass the plan cache", i)
		}
	}
	mustExec(t, s, "COMMIT")
	// Outside a transaction the same shape is cacheable (uid 1 and 5 share
	// a shard, so the data node's own statement cache is warm too).
	for i := 0; i < nodeKeepSights; i++ {
		mustQuery(t, s, "SELECT name FROM t_user WHERE uid = 1 FOR UPDATE")
	}
	n := parses(func() { mustQuery(t, s, "SELECT name FROM t_user WHERE uid = 5 FOR UPDATE") })
	if n != 0 {
		t.Fatalf("FOR UPDATE outside tx parsed %d times", n)
	}
}

func TestPlanCacheInvalidatedByDDL(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	seed(t, s, 4)
	for i := 0; i < sights.Keep; i++ {
		mustQuery(t, s, "SELECT name FROM t_user WHERE uid = 1") // warm: the third sight keeps the plan
	}
	cachedPlan(t, k, "SELECT name FROM t_user WHERE uid = 1")
	mustExec(t, s, "CREATE TABLE t_extra (id INT PRIMARY KEY)")
	// The DDL published a snapshot: the kept plan is passed over once,
	// the shape compiles again, and the plan it keeps is served after.
	for i, want := range [][2]uint64{{0, 1}, {1, 0}} { // hits, misses
		got := planCounts(k, func() {
			rows := mustQuery(t, s, "SELECT name FROM t_user WHERE uid = 2")
			if len(rows) != 1 || rows[0][0].S != "user2" {
				t.Fatalf("post-DDL: %v", rows)
			}
		})
		if got != want {
			t.Fatalf("execution %d after the DDL: %d hits and %d misses, want %v", i, got[0], got[1], want)
		}
	}
}

// TestDefinitionLearnedMidBuild: a build that learns a sharded table's
// definition publishes a newer snapshot while it compiles. Its plan is
// stamped with the snapshot the statement loaded, so it is not current
// afterwards: the next execution misses once and compiles again, then
// hits. Each routes on the definition just learned, by which the string
// key "02" reads as uid 2.
func TestDefinitionLearnedMidBuild(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	seed(t, s, 4)
	const q = "SELECT name FROM t_user WHERE uid = ?"
	uid := sqltypes.NewString("02")
	for i := 0; i < sights.Keep; i++ {
		mustQuery(t, s, q, uid)
	}
	cachedPlan(t, k, q)
	if err := k.Publish(func(rs *sharding.RuleSet) error { rs.Define("t_user", nil); return nil }); err != nil {
		t.Fatal(err)
	}
	for i, want := range [][2]uint64{{0, 1}, {0, 1}, {1, 0}} { // hits, misses
		got := planCounts(k, func() {
			if rows := mustQuery(t, s, q, uid); len(rows) != 1 || rows[0][0].S != "user2" {
				t.Fatalf("execution %d: %v, want user2", i, rows)
			}
		})
		if got != want {
			t.Fatalf("execution %d after the definition was dropped: %d hits and %d misses, want %v", i, got[0], got[1], want)
		}
		if k.Rules().Def("t_user") == nil {
			t.Fatalf("execution %d learned no definition", i)
		}
	}
}

func TestPlanCacheLimitValidationParity(t *testing.T) {
	// A kept plan must report LIMIT argument errors at every bind.
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	seed(t, s, 4)
	// Warm with a good binding until the plan is kept, then fail on a
	// missing one.
	for i := 0; i < sights.Keep; i++ {
		if _, err := s.Query("SELECT name FROM t_user WHERE uid = ? LIMIT ?",
			sqltypes.NewInt(1), sqltypes.NewInt(1)); err != nil {
			t.Fatal(err)
		}
	}
	cachedPlan(t, k, "SELECT name FROM t_user WHERE uid = ? LIMIT ?")
	if _, err := s.Query("SELECT name FROM t_user WHERE uid = ? LIMIT ?", sqltypes.NewInt(1)); err == nil {
		t.Fatal("missing LIMIT bind argument must error")
	}
}

// TestPlanFastPathMultiNode: a kept plan that fans out must return exactly
// what the same statement compiled afresh returns, on the executions that
// compile it (the third keeps it) and on later ones (which only splice).
func TestPlanFastPathMultiNode(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	seed(t, s, 24)
	generic := k.NewSession()
	ints := func(vs ...int64) []sqltypes.Value {
		out := make([]sqltypes.Value, len(vs))
		for i, v := range vs {
			out[i] = sqltypes.NewInt(v)
		}
		return out
	}
	cases := []struct {
		sql  string
		args []sqltypes.Value
	}{
		{"SELECT name FROM t_user WHERE uid BETWEEN ? AND ? ORDER BY uid", ints(3, 17)},
		{"SELECT SUM(age), COUNT(*), AVG(age) FROM t_user WHERE uid BETWEEN ? AND ?", ints(1, 20)},
		{"SELECT name FROM t_user WHERE uid > ? ORDER BY age DESC, uid", ints(4)},
		{"SELECT age, COUNT(*) FROM t_user GROUP BY age", nil},
		{"SELECT DISTINCT age FROM t_user WHERE uid BETWEEN ? AND ? ORDER BY age", ints(1, 24)},
		{"SELECT * FROM t_user ORDER BY name LIMIT ?", ints(5)},
		{"SELECT name FROM t_user ORDER BY uid LIMIT ?, ?", ints(6, 4)}, // revised pagination
		{"SELECT name FROM t_user WHERE uid IN (?, ?) ORDER BY uid", ints(2, 7)},
		{"SELECT u.name, o.amount FROM t_user u JOIN t_order o ON u.uid = o.uid WHERE u.uid IN (?, ?) ORDER BY o.amount", ints(2, 7)},
	}
	for _, c := range cases {
		stmt, err := sqlparser.Parse(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		res, err := generic.executeStmt(stmt, c.args)
		if err != nil {
			t.Fatalf("generic %q: %v", c.sql, err)
		}
		want, err := resource.ReadAll(res.RS)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%q: the freshly compiled statement returned no rows; the case checks nothing", c.sql)
		}
		for run := 0; run <= sights.Keep; run++ {
			if got := mustQuery(t, s, c.sql, c.args...); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%q run %d:\n got %v\nwant %v", c.sql, run, got, want)
			}
		}
		norm, ok := sqlparser.Normalize(c.sql)
		if !ok {
			t.Fatalf("%q does not normalize", c.sql)
		}
		v, ok := k.planCache.Get(norm.Key)
		if !ok {
			t.Fatalf("%q: no cached plan", c.sql)
		}
		if p := v.(*plan); p.route == nil {
			t.Fatalf("%q: the compiled value was not kept", c.sql)
		}
	}
	// The same holds inside a LOCAL transaction, where units ride the
	// transaction's held connections.
	mustExec(t, s, "BEGIN")
	rows := mustQuery(t, s, "SELECT SUM(age), COUNT(*), AVG(age) FROM t_user WHERE uid BETWEEN ? AND ?", ints(1, 20)...)
	mustExec(t, s, "COMMIT")
	if len(rows) != 1 || rows[0][1].I != 20 {
		t.Fatalf("in transaction: %v", rows)
	}
}

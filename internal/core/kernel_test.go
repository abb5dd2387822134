package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"shardingsphere/internal/resource"
	"shardingsphere/internal/route"
	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
	"shardingsphere/internal/transaction"
)

// newKernel builds a kernel over nSources embedded engines with t_user and
// t_order auto-sharded (MOD on uid, shards = 2×sources) and bound.
func newKernel(t *testing.T, nSources, shards int, features ...Feature) *Kernel {
	t.Helper()
	rules := sharding.NewRuleSet()
	sources := map[string]*resource.DataSource{}
	var names []string
	for i := 0; i < nSources; i++ {
		name := fmt.Sprintf("ds%d", i)
		names = append(names, name)
		sources[name] = resource.NewEmbedded(storage.NewEngine(name), nil)
	}
	for _, table := range []string{"t_user", "t_order"} {
		rule, err := sharding.BuildAutoRule(sharding.AutoTableSpec{
			LogicTable:     table,
			Resources:      names,
			ShardingColumn: "uid",
			AlgorithmType:  "MOD",
			ShardingCount:  shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		rules.AddRule(rule)
	}
	if err := rules.AddBindingGroup("t_user", "t_order"); err != nil {
		t.Fatal(err)
	}
	k, err := New(Config{Rules: rules, Sources: sources, MaxCon: 4, Features: features})
	if err != nil {
		t.Fatal(err)
	}
	sess := k.NewSession()
	mustExec(t, sess, "CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(64), age INT)")
	mustExec(t, sess, "CREATE TABLE t_order (oid INT PRIMARY KEY, uid INT, amount INT)")
	return k
}

func mustExec(t *testing.T, s *Session, sql string, args ...sqltypes.Value) resource.ExecResult {
	t.Helper()
	r, err := s.Exec(sql, args...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return r
}

func mustQuery(t *testing.T, s *Session, sql string, args ...sqltypes.Value) []sqltypes.Row {
	t.Helper()
	rs, err := s.Query(sql, args...)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	rows, err := resource.ReadAll(rs)
	if err != nil {
		t.Fatalf("ReadAll(%q): %v", sql, err)
	}
	return rows
}

func seed(t *testing.T, s *Session, users int) {
	t.Helper()
	for i := 1; i <= users; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t_user (uid, name, age) VALUES (%d, 'user%d', %d)", i, i, 20+i%10))
		mustExec(t, s, fmt.Sprintf("INSERT INTO t_order (oid, uid, amount) VALUES (%d, %d, %d)", 1000+i, i, i*10))
	}
}

func TestEndToEndCRUD(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	seed(t, s, 10)

	rows := mustQuery(t, s, "SELECT name FROM t_user WHERE uid = 7")
	if len(rows) != 1 || rows[0][0].S != "user7" {
		t.Fatalf("point select: %v", rows)
	}
	rows = mustQuery(t, s, "SELECT COUNT(*) FROM t_user")
	if rows[0][0].I != 10 {
		t.Fatalf("count: %v", rows)
	}
	if r := mustExec(t, s, "UPDATE t_user SET age = 99 WHERE uid IN (1, 2, 3)"); r.Affected != 3 {
		t.Fatalf("update affected: %d", r.Affected)
	}
	rows = mustQuery(t, s, "SELECT COUNT(*) FROM t_user WHERE age = 99")
	if rows[0][0].I != 3 {
		t.Fatalf("after update: %v", rows)
	}
	if r := mustExec(t, s, "DELETE FROM t_user WHERE uid = 1"); r.Affected != 1 {
		t.Fatalf("delete affected: %d", r.Affected)
	}
	rows = mustQuery(t, s, "SELECT COUNT(*) FROM t_user")
	if rows[0][0].I != 9 {
		t.Fatalf("after delete: %v", rows)
	}
}

func TestOrderByAcrossShards(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	seed(t, s, 20)
	rows := mustQuery(t, s, "SELECT uid FROM t_user ORDER BY uid DESC LIMIT 5")
	if len(rows) != 5 || rows[0][0].I != 20 || rows[4][0].I != 16 {
		t.Fatalf("order/limit: %v", rows)
	}
	// Derived order column stripped from output.
	rows = mustQuery(t, s, "SELECT name FROM t_user ORDER BY uid LIMIT 3")
	if len(rows) != 3 || len(rows[0]) != 1 || rows[0][0].S != "user1" {
		t.Fatalf("derived strip: %v", rows)
	}
}

func TestPaginationAcrossShards(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	seed(t, s, 20)
	rows := mustQuery(t, s, "SELECT uid FROM t_user ORDER BY uid LIMIT 5, 5")
	if len(rows) != 5 || rows[0][0].I != 6 || rows[4][0].I != 10 {
		t.Fatalf("pagination: %v", rows)
	}
}

func TestAggregatesAcrossShards(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	seed(t, s, 10)
	rows := mustQuery(t, s, "SELECT COUNT(*), SUM(amount), MIN(amount), MAX(amount), AVG(amount) FROM t_order")
	r := rows[0]
	if r[0].I != 10 || r[1].I != 550 || r[2].I != 10 || r[3].I != 100 {
		t.Fatalf("aggregates: %v", r)
	}
	if avg := r[4].AsFloat(); avg != 55 {
		t.Fatalf("avg: %v", avg)
	}
	if len(r) != 5 {
		t.Fatalf("derived not stripped: %v", r)
	}
}

func TestGroupByAcrossShards(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	seed(t, s, 20)
	rows := mustQuery(t, s, "SELECT age, COUNT(*) FROM t_user GROUP BY age ORDER BY age")
	total := int64(0)
	prev := int64(-1)
	for _, r := range rows {
		if r[0].I <= prev {
			t.Fatalf("group order: %v", rows)
		}
		prev = r[0].I
		total += r[1].I
	}
	if total != 20 {
		t.Fatalf("group total: %d (%v)", total, rows)
	}
}

func TestBindingJoinAcrossShards(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	seed(t, s, 10)
	rows := mustQuery(t, s, `SELECT u.name, o.amount FROM t_user u JOIN t_order o ON u.uid = o.uid WHERE u.uid IN (3, 4) ORDER BY o.amount`)
	if len(rows) != 2 || rows[0][1].I != 30 || rows[1][1].I != 40 {
		t.Fatalf("binding join: %v", rows)
	}
}

func TestInsertMultiRowSplits(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	if r := mustExec(t, s, "INSERT INTO t_user (uid, name, age) VALUES (1, 'a', 1), (2, 'b', 2), (3, 'c', 3), (4, 'd', 4)"); r.Affected != 4 {
		t.Fatalf("batched insert affected: %d", r.Affected)
	}
	rows := mustQuery(t, s, "SELECT COUNT(*) FROM t_user")
	if rows[0][0].I != 4 {
		t.Fatalf("after batch: %v", rows)
	}
}

func TestShowTablesAndDescribe(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	rows := mustQuery(t, s, "SHOW TABLES")
	if len(rows) != 2 {
		t.Fatalf("show tables: %v", rows)
	}
	rows = mustQuery(t, s, "DESCRIBE t_user")
	if len(rows) != 3 || rows[0][0].S != "uid" || rows[0][2].S != "PRI" {
		t.Fatalf("describe: %v", rows)
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	rows := mustQuery(t, s, "SELECT 1 + 1")
	if rows[0][0].I != 2 {
		t.Fatalf("select without from: %v", rows)
	}
}

func TestPlaceholdersEndToEnd(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	mustExec(t, s, "INSERT INTO t_user (uid, name, age) VALUES (?, ?, ?)",
		sqltypes.NewInt(5), sqltypes.NewString("eve"), sqltypes.NewInt(30))
	rows := mustQuery(t, s, "SELECT name FROM t_user WHERE uid = ?", sqltypes.NewInt(5))
	if len(rows) != 1 || rows[0][0].S != "eve" {
		t.Fatalf("placeholders: %v", rows)
	}
}

func txTest(t *testing.T, typ transaction.Type) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	seed(t, s, 4)
	s.SetTransactionType(typ)

	// Commit path.
	mustExec(t, s, "BEGIN")
	if !s.InTransaction() {
		t.Fatal("not in tx")
	}
	mustExec(t, s, "UPDATE t_user SET age = 77 WHERE uid IN (1, 2, 3, 4)") // spans both sources
	mustExec(t, s, "COMMIT")
	rows := mustQuery(t, s, "SELECT COUNT(*) FROM t_user WHERE age = 77")
	if rows[0][0].I != 4 {
		t.Fatalf("%v commit: %v", typ, rows)
	}

	// Rollback path.
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE t_user SET age = 11 WHERE uid IN (1, 2, 3, 4)")
	mustExec(t, s, "ROLLBACK")
	rows = mustQuery(t, s, "SELECT COUNT(*) FROM t_user WHERE age = 77")
	if rows[0][0].I != 4 {
		t.Fatalf("%v rollback: %v", typ, rows)
	}
}

func TestLocalTransactionEndToEnd(t *testing.T) { txTest(t, transaction.Local) }
func TestXATransactionEndToEnd(t *testing.T)    { txTest(t, transaction.XA) }
func TestBaseTransactionEndToEnd(t *testing.T)  { txTest(t, transaction.Base) }

func TestTransactionIsolationAcrossSessions(t *testing.T) {
	k := newKernel(t, 2, 4)
	s1 := k.NewSession()
	s2 := k.NewSession()
	seed(t, s1, 4)
	s1.SetTransactionType(transaction.XA)
	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, "UPDATE t_user SET age = 50 WHERE uid = 1")
	rows := mustQuery(t, s2, "SELECT age FROM t_user WHERE uid = 1")
	if rows[0][0].I == 50 {
		t.Fatal("dirty read across sessions")
	}
	mustExec(t, s1, "COMMIT")
	rows = mustQuery(t, s2, "SELECT age FROM t_user WHERE uid = 1")
	if rows[0][0].I != 50 {
		t.Fatalf("commit invisible: %v", rows)
	}
}

func TestSetVariableTransactionType(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	mustExec(t, s, "SET transaction_type = 'XA'")
	if s.TransactionType() != transaction.XA {
		t.Fatalf("type: %v", s.TransactionType())
	}
	if _, err := s.Exec("SET transaction_type = 'NOPE'"); err == nil {
		t.Fatal("bad type accepted")
	}
}

// A kernel with no DistSQL handler knows no DistSQL: the text goes to the
// SQL parser like any other statement.
func TestDistSQLWithoutHandlerIsASQLParseError(t *testing.T) {
	s := newKernel(t, 2, 4).NewSession()
	for _, sql := range []string{"SHOW SHARDING TABLE RULES", "RESET DIGESTS", "PREVIEW SELECT 1"} {
		_, err := s.Execute(sql)
		var pe *sqlparser.ParseError
		if !errors.As(err, &pe) {
			t.Errorf("%s: want a SQL parse error, got %v", sql, err)
		}
	}
}

func TestBeginTwiceFails(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	mustExec(t, s, "BEGIN")
	if _, err := s.Exec("BEGIN"); !errors.Is(err, ErrInTransaction) {
		t.Fatalf("nested begin: %v", err)
	}
	mustExec(t, s, "ROLLBACK")
}

func TestSessionCloseRollsBack(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	seed(t, s, 2)
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE t_user SET age = 1 WHERE uid = 1")
	s.Close()
	s2 := k.NewSession()
	rows := mustQuery(t, s2, "SELECT age FROM t_user WHERE uid = 1")
	if rows[0][0].I == 1 {
		t.Fatal("close did not roll back")
	}
}

func TestTableMetaService(t *testing.T) {
	k := newKernel(t, 2, 4)
	pk, cols, err := k.TableMeta("ds0", "t_user_0")
	if err != nil {
		t.Fatal(err)
	}
	if len(pk) != 1 || pk[0] != "uid" || len(cols) != 3 {
		t.Fatalf("meta: %v %v", pk, cols)
	}
	// Cached second call.
	pk2, _, _ := k.TableMeta("ds0", "t_user_0")
	if pk2[0] != "uid" {
		t.Fatal("cache broken")
	}
}

func TestUnshardedTableOnDefaultSource(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	mustExec(t, s, "CREATE TABLE plain (id INT PRIMARY KEY, v VARCHAR(10))")
	mustExec(t, s, "INSERT INTO plain VALUES (1, 'x')")
	rows := mustQuery(t, s, "SELECT v FROM plain WHERE id = 1")
	if rows[0][0].S != "x" {
		t.Fatalf("unsharded: %v", rows)
	}
	// It lives only on the default source.
	src, _ := k.Executor().Source("ds1")
	conn, _ := src.Acquire()
	defer conn.Release()
	if _, err := conn.Query(context.Background(), "SELECT * FROM plain"); err == nil {
		t.Fatal("plain table leaked to ds1")
	}
}

// gateFeature blocks one source for the circuit-breaker test.
type gateFeature struct{ blocked string }

func (g gateFeature) Name() string         { return "test-gate" }
func (g gateFeature) Allow(ds string) bool { return ds != g.blocked }

func TestSourceGateBlocksExecution(t *testing.T) {
	k := newKernel(t, 2, 4)
	k.AddGate(gateFeature{blocked: "ds1"})
	s := k.NewSession()
	// uid=1 routes to shard 1 on ds1 → blocked.
	_, err := s.Exec("INSERT INTO t_user (uid, name, age) VALUES (1, 'a', 1)")
	if !errors.Is(err, ErrSourceDown) {
		t.Fatalf("gate: %v", err)
	}
	// uid=2 routes to ds0 → allowed.
	mustExec(t, s, "INSERT INTO t_user (uid, name, age) VALUES (2, 'b', 2)")
}

func TestDistinctAcrossShards(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	seed(t, s, 20)
	rows := mustQuery(t, s, "SELECT DISTINCT age FROM t_user")
	seen := map[int64]bool{}
	for _, r := range rows {
		if seen[r[0].I] {
			t.Fatalf("distinct failed: %v", rows)
		}
		seen[r[0].I] = true
	}
}

func TestGeneratedKeyFillsInsert(t *testing.T) {
	k := newKernel(t, 2, 4)
	rule, _ := k.Rules().Rule("t_order")
	gen, err := sharding.NewSnowflake(3)
	if err != nil {
		t.Fatal(err)
	}
	rule.KeyGenColumn = "oid"
	rule.KeyGen = gen
	s := k.NewSession()

	// INSERT without the key column: the kernel generates one.
	res := mustExec(t, s, "INSERT INTO t_order (uid, amount) VALUES (5, 100)")
	if res.LastInsertID == 0 {
		t.Fatal("no generated key reported")
	}
	rows := mustQuery(t, s, "SELECT oid FROM t_order WHERE uid = 5")
	if len(rows) != 1 || rows[0][0].I != res.LastInsertID {
		t.Fatalf("generated key mismatch: %v vs %d", rows, res.LastInsertID)
	}

	// Explicit key columns pass through untouched.
	res = mustExec(t, s, "INSERT INTO t_order (oid, uid, amount) VALUES (42, 6, 1)")
	if res.LastInsertID != 0 {
		t.Fatalf("explicit key must not generate: %d", res.LastInsertID)
	}

	// Multi-row inserts get distinct keys and split across shards.
	res = mustExec(t, s, "INSERT INTO t_order (uid, amount) VALUES (1, 1), (2, 2), (3, 3)")
	if res.Affected != 3 {
		t.Fatalf("affected: %d", res.Affected)
	}
	rows = mustQuery(t, s, "SELECT COUNT(DISTINCT oid) FROM t_order")
	if rows[0][0].I != 5 {
		t.Fatalf("distinct keys: %v", rows)
	}
}

func TestCartesianJoinEndToEnd(t *testing.T) {
	// Without a binding group the join takes every combination of the two
	// tables' nodes: on one source it returns exactly the right rows; over
	// two, combinations span sources and it is refused. Bound, it routes
	// per shard over two sources and returns the same rows.
	for _, c := range []struct {
		resources []string
		bind      bool
		kind      route.Kind // 0 with refused
		refused   bool
	}{
		{[]string{"ds0", "ds1"}, false, 0, true},
		{[]string{"ds0", "ds1"}, true, route.KindBinding, false},
		{[]string{"ds0"}, false, route.KindCartesian, false},
	} {
		rules := sharding.NewRuleSet()
		sources := map[string]*resource.DataSource{}
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("ds%d", i)
			sources[name] = resource.NewEmbedded(storage.NewEngine(name), nil)
		}
		for _, table := range []string{"t_a", "t_b"} {
			rule, err := sharding.BuildAutoRule(sharding.AutoTableSpec{
				LogicTable: table, Resources: c.resources,
				ShardingColumn: "uid", AlgorithmType: "MOD", ShardingCount: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			rules.AddRule(rule)
		}
		if c.bind {
			if err := rules.AddBindingGroup("t_a", "t_b"); err != nil {
				t.Fatal(err)
			}
		}
		k, err := New(Config{Rules: rules, Sources: sources, MaxCon: 4})
		if err != nil {
			t.Fatal(err)
		}
		s := k.NewSession()
		mustExec(t, s, "CREATE TABLE t_a (uid INT PRIMARY KEY, v INT)")
		mustExec(t, s, "CREATE TABLE t_b (uid INT PRIMARY KEY, w INT)")
		for i := 0; i < 12; i++ {
			mustExec(t, s, fmt.Sprintf("INSERT INTO t_a (uid, v) VALUES (%d, %d)", i, i*10))
			mustExec(t, s, fmt.Sprintf("INSERT INTO t_b (uid, w) VALUES (%d, %d)", i, i*100))
		}
		const sql = "SELECT a.v, b.w FROM t_a a JOIN t_b b ON a.uid = b.uid WHERE a.uid IN (3, 7) ORDER BY a.v"
		if c.refused {
			if _, err := s.Query(sql); !errors.Is(err, route.ErrNotColocated) {
				t.Fatalf("%v, bound %v: %v, want ErrNotColocated", c.resources, c.bind, err)
			}
			continue
		}
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := k.Router().Route(stmt, nil, nil); err != nil || res.Kind != c.kind {
			t.Fatalf("%v, bound %v: route %+v %v, want %v", c.resources, c.bind, res, err, c.kind)
		}
		rows := mustQuery(t, s, sql)
		if len(rows) != 2 || rows[0][0].I != 30 || rows[0][1].I != 300 || rows[1][0].I != 70 {
			t.Fatalf("%v, bound %v: join rows: %v", c.resources, c.bind, rows)
		}
		// Count matches even on a full-table join.
		rows = mustQuery(t, s, "SELECT COUNT(*) FROM t_a a JOIN t_b b ON a.uid = b.uid")
		if rows[0][0].I != 12 {
			t.Fatalf("%v, bound %v: full join count: %v", c.resources, c.bind, rows)
		}
	}
}

func TestKernelErrorPaths(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	// Unparseable SQL.
	if _, err := s.Exec("SELEC nonsense"); err == nil {
		t.Fatal("bad SQL accepted")
	}
	// Unknown table (unsharded → default source, engine reports missing).
	if _, err := s.Query("SELECT * FROM missing_table"); err == nil {
		t.Fatal("missing table accepted")
	}
	// Query() on a non-query statement.
	if _, err := s.Query("INSERT INTO t_user (uid, name, age) VALUES (1, 'a', 1)"); !errors.Is(err, ErrNotQuery) {
		t.Fatalf("Query on DML: %v", err)
	}
	// Exec() on a query drains and errors.
	if _, err := s.Exec("SELECT COUNT(*) FROM t_user"); err == nil {
		t.Fatal("Exec on query accepted")
	}
	// Updating the sharding key is rejected by the router.
	if _, err := s.Exec("UPDATE t_user SET uid = 1 WHERE uid = 2"); err == nil {
		t.Fatal("sharding key update accepted")
	}
	// Insert without the sharding key is rejected (uid has no generator).
	if _, err := s.Exec("INSERT INTO t_user (name, age) VALUES ('x', 1)"); err == nil {
		t.Fatal("keyless insert accepted")
	}
	// Empty config is rejected.
	if _, err := New(Config{}); err == nil {
		t.Fatal("kernel without sources accepted")
	}
	// DistSQL without a handler errors cleanly.
	if _, err := s.Execute("SHOW SHARDING TABLE RULES"); err == nil {
		t.Fatal("DistSQL without handler accepted")
	}
}

func TestCommitRollbackOutsideTxAreNoops(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	mustExec(t, s, "COMMIT")
	mustExec(t, s, "ROLLBACK")
}

func TestLeftJoinAcrossShards(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	seed(t, s, 6)
	// Remove some orders so the LEFT JOIN pads.
	mustExec(t, s, "DELETE FROM t_order WHERE uid IN (2, 4)")
	rows := mustQuery(t, s, `SELECT u.uid, o.amount FROM t_user u LEFT JOIN t_order o ON u.uid = o.uid ORDER BY u.uid`)
	if len(rows) != 6 {
		t.Fatalf("left join rows: %v", rows)
	}
	padded := 0
	for _, r := range rows {
		if r[1].IsNull() {
			padded++
		}
	}
	if padded != 2 {
		t.Fatalf("left join padding: %v", rows)
	}
}

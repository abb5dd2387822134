package shardingdb

import (
	"database/sql"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"shardingsphere/internal/core"
	"shardingsphere/internal/proxy"
	"shardingsphere/internal/registry"
	"shardingsphere/internal/sqlexec"
	"shardingsphere/internal/storage"
)

func open(t *testing.T, n int) *DB {
	t.Helper()
	var dss []DataSourceConfig
	for i := 0; i < n; i++ {
		dss = append(dss, DataSourceConfig{Name: fmt.Sprintf("ds%d", i)})
	}
	db, err := Open(Config{DataSources: dss, MaxCon: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

func setupOrders(t *testing.T, db *DB) *Session {
	t.Helper()
	s := db.Session()
	if _, err := s.Exec(`CREATE SHARDING TABLE RULE t_order (
		RESOURCES(ds0, ds1),
		SHARDING_COLUMN = uid,
		TYPE = mod,
		PROPERTIES("sharding-count" = 4)
	)`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("CREATE TABLE t_order (oid INT PRIMARY KEY, uid INT, amount INT)"); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestQuickstartFlow(t *testing.T) {
	db := open(t, 2)
	s := setupOrders(t, db)
	for i := 1; i <= 10; i++ {
		if _, err := s.Exec("INSERT INTO t_order (oid, uid, amount) VALUES (?, ?, ?)",
			Int(int64(i)), Int(int64(i%5)), Int(int64(i*100))); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := s.QueryAll("SELECT COUNT(*), SUM(amount) FROM t_order")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].I != 10 || rows[0][1].I != 5500 {
		t.Fatalf("aggregate: %v", rows)
	}
	rows, err = s.QueryAll("SELECT amount FROM t_order WHERE uid = ? ORDER BY oid", Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].I != 200 || rows[1][0].I != 700 {
		t.Fatalf("point query: %v", rows)
	}
}

func TestWithTx(t *testing.T) {
	db := open(t, 2)
	s := setupOrders(t, db)
	err := s.WithTx(func(s *Session) error {
		_, err := s.Exec("INSERT INTO t_order (oid, uid, amount) VALUES (1, 1, 100)")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Failing body rolls back.
	err = s.WithTx(func(s *Session) error {
		if _, err := s.Exec("INSERT INTO t_order (oid, uid, amount) VALUES (2, 2, 100)"); err != nil {
			return err
		}
		return fmt.Errorf("business failure")
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	rows, _ := s.QueryAll("SELECT COUNT(*) FROM t_order")
	if rows[0][0].I != 1 {
		t.Fatalf("rollback lost: %v", rows)
	}
}

func TestStreamingRows(t *testing.T) {
	db := open(t, 2)
	s := setupOrders(t, db)
	for i := 1; i <= 5; i++ {
		s.Exec(fmt.Sprintf("INSERT INTO t_order (oid, uid, amount) VALUES (%d, %d, 1)", i, i))
	}
	rows, err := s.Query("SELECT oid FROM t_order ORDER BY oid")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for {
		row, ok, err := rows.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
		if row[0].I != int64(n) {
			t.Fatalf("order: %v at %d", row, n)
		}
	}
	if n != 5 {
		t.Fatalf("rows: %d", n)
	}
}

func TestDatabaseSQLDriver(t *testing.T) {
	db := open(t, 2)
	setupOrders(t, db)
	RegisterForSQL("driver-test", db)
	sqlDB, err := sql.Open("shardingsphere", "driver-test")
	if err != nil {
		t.Fatal(err)
	}
	defer sqlDB.Close()

	res, err := sqlDB.Exec("INSERT INTO t_order (oid, uid, amount) VALUES (?, ?, ?)", 1, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.RowsAffected(); n != 1 {
		t.Fatalf("affected: %d", n)
	}
	var count, total int64
	if err := sqlDB.QueryRow("SELECT COUNT(*), SUM(amount) FROM t_order").Scan(&count, &total); err != nil {
		t.Fatal(err)
	}
	if count != 1 || total != 100 {
		t.Fatalf("scan: %d %d", count, total)
	}

	// Transactions through database/sql.
	tx, err := sqlDB.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO t_order (oid, uid, amount) VALUES (2, 2, 50)"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	sqlDB.QueryRow("SELECT COUNT(*) FROM t_order").Scan(&count)
	if count != 1 {
		t.Fatalf("tx rollback via database/sql: %d", count)
	}

	// Unregistered DSN fails.
	bad, _ := sql.Open("shardingsphere", "nope")
	if err := bad.Ping(); err == nil {
		t.Fatal("unregistered DSN accepted")
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := Open(Config{
		DataSources:            []DataSourceConfig{{Name: "ds0"}},
		DefaultTransactionType: "NOPE",
	}); err == nil {
		t.Fatal("bad tx type accepted")
	}
}

func TestDistSQLThroughSession(t *testing.T) {
	db := open(t, 2)
	s := setupOrders(t, db)
	rows, err := s.QueryAll("SHOW SHARDING TABLE RULES")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].S != "t_order" {
		t.Fatalf("rules: %v", rows)
	}
	rows, err = s.QueryAll("PREVIEW SELECT * FROM t_order WHERE uid = 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("preview: %v", rows)
	}
}

func TestRecoverNoOpWhenClean(t *testing.T) {
	db := open(t, 2)
	n, err := db.Recover()
	if err != nil || n != 0 {
		t.Fatalf("recover: %d %v", n, err)
	}
}

func TestSharedRegistryConfigAdoption(t *testing.T) {
	// Instance 1 defines rules; instance 2 sharing the registry adopts
	// them at startup (the Governor's configuration management).
	reg := registry.New()
	db1, err := Open(Config{
		DataSources: []DataSourceConfig{{Name: "ds0"}, {Name: "ds1"}},
		Registry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db1.Close()
	s1 := db1.Session()
	if _, err := s1.Exec(`CREATE SHARDING TABLE RULE t_shared (
		RESOURCES(ds0, ds1), SHARDING_COLUMN = id, TYPE = mod,
		PROPERTIES("sharding-count" = 2))`); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Config{
		DataSources: []DataSourceConfig{{Name: "ds0"}, {Name: "ds1"}},
		Registry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if !db2.Kernel().Rules().IsSharded("t_shared") {
		t.Fatal("second instance did not adopt shared rules")
	}
	// Both instances are registered with the Governor.
	if got := db1.Governor().Instances(); len(got) != 2 {
		t.Fatalf("instances: %v", got)
	}
}

// TestCloseReleasesTheConfigWatch: Close stops a DB's registry watch. Ten
// Open and Close pairs on a shared registry leave the goroutine count where
// it was, and a closed DB does not adopt a rule a peer creates after it.
// Nothing sleeps: closing a watch waits for its goroutine, and a live DB
// closed after the change has adopted it.
func TestCloseReleasesTheConfigWatch(t *testing.T) {
	reg := registry.New()
	cfg := Config{DataSources: []DataSourceConfig{{Name: "ds0"}, {Name: "ds1"}}, Registry: reg}
	openDB := func() *DB {
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	peer := openDB()
	defer peer.Close()
	closed := openDB()
	closed.Close()
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		openDB().Close()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("ten Open+Close pairs: %d goroutines, %d before", after, before)
	}
	live := openDB()
	if _, err := peer.Session().Exec(`CREATE SHARDING TABLE RULE t_late (RESOURCES(ds0, ds1), SHARDING_COLUMN = id, TYPE = mod, PROPERTIES("sharding-count" = 2))`); err != nil {
		t.Fatal(err)
	}
	live.Close()
	if !live.Kernel().Rules().IsSharded("t_late") {
		t.Fatal("a live DB did not adopt its peer's rule")
	}
	if closed.Kernel().Rules().IsSharded("t_late") {
		t.Error("a closed DB adopted its peer's rule")
	}
}

// TestCloseClosesRemoteSources: Close closes every data source, and a
// remote one's multiplexed sockets with it. Five Open, CREATE, DROP and
// Close rounds over two data nodes leave no goroutine in pkg/client;
// closing a transport waits for its goroutines, so nothing sleeps. On one
// P, a yield before each count lets a goroutine that a Close's Wait has
// already released finish returning.
func TestCloseClosesRemoteSources(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var sources []DataSourceConfig
	for _, name := range []string{"ds0", "ds1"} {
		srv := proxy.NewServer(&proxy.NodeBackend{Processor: sqlexec.NewProcessor(storage.NewEngine(name))})
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		sources = append(sources, DataSourceConfig{Name: name, Addr: addr})
	}
	inClient := func() int {
		runtime.Gosched()
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		n := 0
		for _, g := range strings.Split(string(buf), "\n\n") {
			if strings.Contains(g, "shardingsphere/pkg/client.") {
				n++
			}
		}
		return n
	}
	before := inClient()
	for i := 0; i < 5; i++ {
		db, err := Open(Config{DataSources: sources})
		if err != nil {
			t.Fatal(err)
		}
		s := db.Session()
		for _, sql := range []string{"CREATE TABLE t (id INT PRIMARY KEY)", "DROP TABLE t"} {
			if _, err := s.Exec(sql); err != nil {
				t.Fatal(err)
			}
		}
		db.Close()
	}
	if n := inClient() - before; n != 0 {
		t.Errorf("five Open+Close rounds left %d goroutines in pkg/client", n)
	}
}

// TestSecondOpenAdoptsTheCatalog: a DB opened on the registry of a first
// one, over the same two data nodes, adopts the first one's rule and the
// definition of its VARCHAR-keyed table at Open, and answers as one engine
// does.
func TestSecondOpenAdoptsTheCatalog(t *testing.T) {
	reg := registry.New()
	var sources []DataSourceConfig
	for _, name := range []string{"ds0", "ds1"} {
		srv := proxy.NewServer(&proxy.NodeBackend{Processor: sqlexec.NewProcessor(storage.NewEngine(name))})
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		sources = append(sources, DataSourceConfig{Name: name, Addr: addr})
	}
	session := func() *Session {
		db, err := Open(Config{DataSources: sources, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(db.Close)
		return db.Session()
	}
	ref := sqlexec.NewProcessor(storage.NewEngine("ref")).NewSession()
	first := session()
	if _, err := first.Exec(`CREATE SHARDING TABLE RULE t_user (RESOURCES(ds0, ds1), SHARDING_COLUMN = uid, TYPE = hash_mod, PROPERTIES("sharding-count" = 4))`); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{"CREATE TABLE t_user (uid VARCHAR(10) PRIMARY KEY, v INT)", "INSERT INTO t_user (uid, v) VALUES ('07', 1), ('7', 2), ('8', 3)"} {
		if _, err := first.Exec(sql); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Execute(sql); err != nil {
			t.Fatal(err)
		}
	}
	second := session()
	for _, q := range []string{"SELECT v FROM t_user WHERE uid = '07'", "SELECT v FROM t_user WHERE uid = 7 ORDER BY v", "SELECT v FROM t_user WHERE uid = '8'"} {
		got, err := second.QueryAll(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := ref.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want.Rows) {
			t.Errorf("%s: %v, one engine %v", q, got, want.Rows)
		}
	}
}

func TestRemoteDataSourceThroughConfig(t *testing.T) {
	// Start a data node server and attach it via DataSourceConfig.Addr —
	// the networked deployment path of shardingdb.Open.
	eng := storage.NewEngine("ds1")
	srv := proxy.NewServer(&proxy.NodeBackend{Processor: sqlexec.NewProcessor(eng)})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	db, err := Open(Config{
		DataSources: []DataSourceConfig{
			{Name: "ds0"},             // embedded
			{Name: "ds1", Addr: addr}, // remote
		},
		MaxCon: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session()
	if _, err := s.Exec(`CREATE SHARDING TABLE RULE t (
		RESOURCES(ds0, ds1), SHARDING_COLUMN = id, TYPE = mod,
		PROPERTIES("sharding-count" = 2))`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Exec("INSERT INTO t (id, v) VALUES (?, ?)", Int(int64(i)), Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := s.QueryAll("SELECT SUM(v) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].I != 45 {
		t.Fatalf("mixed embedded+remote sum: %v", rows)
	}
	// Odd ids (shard 1) live on the remote node.
	proc := sqlexec.NewProcessor(eng)
	sess := proc.NewSession()
	res, err := sess.Execute("SELECT COUNT(*) FROM t_1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 5 {
		t.Fatalf("remote shard rows: %v", res.Rows)
	}
}

func TestHealthCheckGateInDB(t *testing.T) {
	db, err := Open(Config{
		DataSources:         []DataSourceConfig{{Name: "ds0"}},
		HealthCheckInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session()
	if _, err := s.Exec("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	// Manual break through the governor blocks traffic via the gate.
	db.Governor().BreakSource("ds0", true)
	if _, err := s.Exec("INSERT INTO t VALUES (1)"); err == nil {
		t.Fatal("broken source accepted traffic")
	}
	db.Governor().BreakSource("ds0", false)
	if _, err := s.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
}

// TestCircuitBreakGatesWithoutHealthChecks: with no health-check loop, a
// source's breaker still gates every statement: one routed to a source
// broken by circuit_break fails with core.ErrSourceDown, and runs again
// once the breaker is released.
func TestCircuitBreakGatesWithoutHealthChecks(t *testing.T) {
	db, err := Open(Config{DataSources: []DataSourceConfig{{Name: "ds0"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session()
	if _, err := s.Exec("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("SET VARIABLE circuit_break = 'ds0:on'"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO t VALUES (1)"); !errors.Is(err, core.ErrSourceDown) {
		t.Fatalf("an INSERT on the broken source: %v", err)
	}
	if _, err := s.QueryAll("SELECT id FROM t"); !errors.Is(err, core.ErrSourceDown) {
		t.Fatalf("a SELECT on the broken source: %v", err)
	}
	if _, err := s.Exec("SET VARIABLE circuit_break = 'ds0:off'"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatalf("an INSERT after the release: %v", err)
	}
	if rows, err := s.QueryAll("SELECT id FROM t"); err != nil || len(rows) != 1 {
		t.Fatalf("a SELECT after the release: %v, %v", rows, err)
	}
}

// TestStringsCompareByLeadingNumber holds literal comparisons to MySQL's
// own answers (the one-engine oracle shares the evaluator, so it cannot):
// a string against a number reads as its leading number, 0 if it has none.
// The same holds for a stored VARCHAR, compared on its data node.
func TestStringsCompareByLeadingNumber(t *testing.T) {
	db := open(t, 2)
	s := db.Session()
	rows, err := s.QueryAll("SELECT '12abc' = 12, 'abc' = 0, '1e2z' = 100, ' 3x' + 1 = 4")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"'12abc' = 12", "'abc' = 0", "'1e2z' = 100", "' 3x' + 1 = 4"} {
		if !rows[0][i].Bool() {
			t.Errorf("%s is %v; MySQL answers TRUE", want, rows[0][i])
		}
	}
	if _, err := s.Exec(`CREATE SHARDING TABLE RULE t_text (RESOURCES(ds0, ds1), SHARDING_COLUMN = id,
		TYPE = mod, PROPERTIES("sharding-count" = 2))`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("CREATE TABLE t_text (id INT PRIMARY KEY, v VARCHAR(16))"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO t_text (id, v) VALUES (1, '12abc'), (2, 'abc'), (3, '1e2z'), (4, ' 3x')"); err != nil {
		t.Fatal(err)
	}
	rows, err = s.QueryAll("SELECT id FROM t_text WHERE v = 12 OR v = 100 OR v + 1 = 4 ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0][0].I != 1 || rows[1][0].I != 3 || rows[2][0].I != 4 {
		t.Errorf("stored strings matching their leading number: %v, want ids 1, 3 and 4", rows)
	}
}

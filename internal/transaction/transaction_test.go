package transaction

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shardingsphere/internal/chaos"
	"shardingsphere/internal/exec"
	"shardingsphere/internal/registry"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/rewrite"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
)

// bg is the tests' root context. The production package threads caller
// contexts everywhere (cleanup detaches via context.WithoutCancel), so
// the only context the tests ever mint is this one.
var bg = context.TODO()

// testMeta serves metadata for the fixture tables.
type testMeta struct{}

func (testMeta) TableMeta(ds, table string) ([]string, []string, error) {
	return []string{"id"}, []string{"id", "v"}, nil
}

// fixture builds two sources each holding table t(id pk, v) with one row.
func fixture(t *testing.T, log LogStore) (*Manager, *exec.Executor) {
	t.Helper()
	sources := map[string]*resource.DataSource{}
	for d := 0; d < 2; d++ {
		eng := storage.NewEngine(fmt.Sprintf("ds%d", d))
		ds := resource.NewEmbedded(eng, nil)
		conn, err := ds.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Exec(bg, "CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Exec(bg, fmt.Sprintf("INSERT INTO t VALUES (%d, 0)", d)); err != nil {
			t.Fatal(err)
		}
		conn.Release()
		sources[eng.Name()] = ds
	}
	e := exec.New(sources, 1)
	return NewManager(e, log, testMeta{}), e
}

func unitsBoth(sql string) []rewrite.SQLUnit {
	return []rewrite.SQLUnit{
		{DataSource: "ds0", SQL: sql},
		{DataSource: "ds1", SQL: sql},
	}
}

func unitsOn(ds, sql string) []rewrite.SQLUnit {
	return []rewrite.SQLUnit{{DataSource: ds, SQL: sql}}
}

func readV(t *testing.T, e *exec.Executor, ds string, id int) int64 {
	t.Helper()
	src, err := e.Source(ds)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := src.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Release()
	rs, err := conn.Query(bg, fmt.Sprintf("SELECT v FROM t WHERE id = %d", id))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := resource.ReadAll(rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		return -1
	}
	return rows[0][0].I
}

// run drives one distributed statement through a transaction, the way the
// kernel does.
func run(t *testing.T, mgr *Manager, e *exec.Executor, tx Tx, units []rewrite.SQLUnit) {
	t.Helper()
	if err := tx.BeforeStatement(bg, units); err != nil {
		t.Fatal(err)
	}
	_, execErr := e.ExecuteUpdateCtx(context.Background(), units, tx.Held(), nil)
	if err := tx.AfterStatement(bg, units, execErr); err != nil {
		t.Fatal(err)
	}
	if execErr != nil {
		t.Fatal(execErr)
	}
}

// sqlRecorder wraps a connection and records every statement that crosses
// it without returning rows, with its arguments; tests install it as a
// pool interceptor to prove which verbs a commit path actually issued. It
// cannot pipeline, so a batch reaches it one statement at a time.
type sqlRecorder struct {
	resource.Conn
	mu  *sync.Mutex
	log *[]resource.Statement
}

func (r sqlRecorder) Exec(ctx context.Context, sql string, args ...sqltypes.Value) (resource.ExecResult, error) {
	r.mu.Lock()
	*r.log = append(*r.log, resource.Statement{SQL: sql, Args: args})
	r.mu.Unlock()
	return r.Conn.Exec(ctx, sql, args...)
}

// recordSQL taps every statement executed on the source from now on.
func recordSQL(t *testing.T, e *exec.Executor, ds string) (*sync.Mutex, *[]resource.Statement) {
	t.Helper()
	src, err := e.Source(ds)
	if err != nil {
		t.Fatal(err)
	}
	mu := &sync.Mutex{}
	log := &[]resource.Statement{}
	src.SetConnInterceptor(func(c resource.Conn) resource.Conn {
		return sqlRecorder{Conn: c, mu: mu, log: log}
	})
	return mu, log
}

func recorded(mu *sync.Mutex, log *[]resource.Statement) []resource.Statement {
	mu.Lock()
	defer mu.Unlock()
	return append([]resource.Statement(nil), *log...)
}

// turnConn counts a connection's turns: each Exec, Query, ExecBatch and
// QueryBatch is one exchange with the data source, however many
// statements it carries.
type turnConn struct {
	resource.Conn
	turns *atomic.Int64
}

func (c turnConn) Exec(ctx context.Context, sql string, args ...sqltypes.Value) (resource.ExecResult, error) {
	c.turns.Add(1)
	return c.Conn.Exec(ctx, sql, args...)
}

func (c turnConn) Query(ctx context.Context, sql string, args ...sqltypes.Value) (resource.ResultSet, error) {
	c.turns.Add(1)
	return c.Conn.Query(ctx, sql, args...)
}

func (c turnConn) ExecBatch(ctx context.Context, stmts []resource.Statement) ([]resource.ExecResult, error) {
	c.turns.Add(1)
	return resource.ExecBatch(ctx, c.Conn, stmts)
}

func (c turnConn) QueryBatch(ctx context.Context, stmts []resource.Statement) ([]resource.ResultSet, error) {
	c.turns.Add(1)
	return resource.QueryBatch(ctx, c.Conn, stmts)
}

// countTurns counts the turns every connection of ds0 and ds1 takes from
// now on, one counter per source.
func countTurns(t *testing.T, e *exec.Executor) map[string]*atomic.Int64 {
	t.Helper()
	out := map[string]*atomic.Int64{}
	for _, ds := range []string{"ds0", "ds1"} {
		src, err := e.Source(ds)
		if err != nil {
			t.Fatal(err)
		}
		n := &atomic.Int64{}
		src.SetConnInterceptor(func(c resource.Conn) resource.Conn { return turnConn{Conn: c, turns: n} })
		out[ds] = n
	}
	return out
}

func TestParseType(t *testing.T) {
	for s, want := range map[string]Type{"local": Local, "XA": XA, "base": Base} {
		got, err := ParseType(s)
		if err != nil || got != want {
			t.Fatalf("ParseType(%s) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseType("nope"); err == nil {
		t.Fatal("bad type accepted")
	}
	if Local.String() != "LOCAL" || XA.String() != "XA" || Base.String() != "BASE" {
		t.Fatal("type names")
	}
}

func TestLocalCommitSpansSources(t *testing.T) {
	mgr, e := fixture(t, nil)
	tx, err := mgr.Begin(Local)
	if err != nil {
		t.Fatal(err)
	}
	run(t, mgr, e, tx, unitsBoth("UPDATE t SET v = 7"))
	// Uncommitted: fresh connections see the old value.
	if readV(t, e, "ds0", 0) != 0 || readV(t, e, "ds1", 1) != 0 {
		t.Fatal("local tx leaked before commit")
	}
	if err := tx.Commit(bg); err != nil {
		t.Fatal(err)
	}
	if readV(t, e, "ds0", 0) != 7 || readV(t, e, "ds1", 1) != 7 {
		t.Fatal("local commit lost")
	}
	if err := tx.Commit(bg); !errors.Is(err, ErrTxClosed) {
		t.Fatalf("double commit: %v", err)
	}
}

func TestLocalRollback(t *testing.T) {
	mgr, e := fixture(t, nil)
	tx, _ := mgr.Begin(Local)
	run(t, mgr, e, tx, unitsBoth("UPDATE t SET v = 7"))
	if err := tx.Rollback(bg); err != nil {
		t.Fatal(err)
	}
	if readV(t, e, "ds0", 0) != 0 || readV(t, e, "ds1", 1) != 0 {
		t.Fatal("local rollback lost")
	}
}

func TestXACommit(t *testing.T) {
	mgr, e := fixture(t, nil)
	tx, _ := mgr.Begin(XA)
	run(t, mgr, e, tx, unitsBoth("UPDATE t SET v = 9"))
	if err := tx.Commit(bg); err != nil {
		t.Fatal(err)
	}
	if readV(t, e, "ds0", 0) != 9 || readV(t, e, "ds1", 1) != 9 {
		t.Fatal("xa commit lost")
	}
	// Log cleaned up.
	recs, _ := mgr.log.List()
	if len(recs) != 0 {
		t.Fatalf("log lingers: %v", recs)
	}
	m := mgr.Metrics()
	if m["xa_commits"] != 1 || m["fastpath_commits"] != 0 {
		t.Fatalf("metrics: %v", m)
	}
}

func TestXARollback(t *testing.T) {
	mgr, e := fixture(t, nil)
	tx, _ := mgr.Begin(XA)
	run(t, mgr, e, tx, unitsBoth("UPDATE t SET v = 9"))
	if err := tx.Rollback(bg); err != nil {
		t.Fatal(err)
	}
	if readV(t, e, "ds0", 0) != 0 || readV(t, e, "ds1", 1) != 0 {
		t.Fatal("xa rollback lost")
	}
	if mgr.Metrics()["xa_rollbacks"] != 1 {
		t.Fatalf("metrics: %v", mgr.Metrics())
	}
}

// TestFastPathSingleShardNoXAVerbs proves the tentpole's fast path: a
// transaction that only ever touches one data source commits as plain
// BEGIN/COMMIT — no XA verb on the wire, no log record, and the
// fastpath_commits counter (SHOW METRICS' txn.fastpath_commits, the
// observable proof) ticks.
func TestFastPathSingleShardNoXAVerbs(t *testing.T) {
	mgr, e := fixture(t, nil)
	mu, log := recordSQL(t, e, "ds0")
	tx, _ := mgr.Begin(XA)
	run(t, mgr, e, tx, unitsOn("ds0", "UPDATE t SET v = 3"))
	run(t, mgr, e, tx, unitsOn("ds0", "UPDATE t SET v = v + 1"))
	if err := tx.Commit(bg); err != nil {
		t.Fatal(err)
	}
	if got := readV(t, e, "ds0", 0); got != 4 {
		t.Fatalf("fast-path commit lost: v=%d", got)
	}
	for _, st := range recorded(mu, log) {
		if strings.HasPrefix(st.SQL, "XA ") {
			t.Fatalf("single-shard transaction issued an XA verb: %q", st.SQL)
		}
	}
	recs, _ := mgr.log.List()
	if len(recs) != 0 {
		t.Fatalf("fast path wrote a log record: %v", recs)
	}
	m := mgr.Metrics()
	if m["fastpath_commits"] != 1 || m["xa_commits"] != 0 || m["upgrades"] != 0 {
		t.Fatalf("metrics: %v", m)
	}
	if m["group_ops"] != 0 {
		t.Fatalf("fast path went through the group committer: %v", m)
	}
	if err := tx.Commit(bg); !errors.Is(err, ErrTxClosed) {
		t.Fatalf("double commit: %v", err)
	}
}

func TestFastPathRollback(t *testing.T) {
	mgr, e := fixture(t, nil)
	mu, log := recordSQL(t, e, "ds0")
	tx, _ := mgr.Begin(XA)
	run(t, mgr, e, tx, unitsOn("ds0", "UPDATE t SET v = 3"))
	if err := tx.Rollback(bg); err != nil {
		t.Fatal(err)
	}
	if readV(t, e, "ds0", 0) != 0 {
		t.Fatal("fast-path rollback lost")
	}
	for _, st := range recorded(mu, log) {
		if strings.HasPrefix(st.SQL, "XA ") {
			t.Fatalf("single-shard rollback issued an XA verb: %q", st.SQL)
		}
	}
}

// TestLazyUpgradeToXA drives the fast path across its promotion: the
// first statement stays local on ds0, the second touches ds1 too, so the
// ds0 branch is adopted into the XA transaction (XA ADOPT, leading its
// prepare batch) and the whole commit runs 2PC. Every verb is one text
// with the xid as its argument.
func TestLazyUpgradeToXA(t *testing.T) {
	mgr, e := fixture(t, nil)
	mu, log := recordSQL(t, e, "ds0")
	tx, _ := mgr.Begin(XA)
	run(t, mgr, e, tx, unitsOn("ds0", "UPDATE t SET v = 5"))
	run(t, mgr, e, tx, unitsBoth("UPDATE t SET v = v + 1"))
	if err := tx.Commit(bg); err != nil {
		t.Fatal(err)
	}
	if readV(t, e, "ds0", 0) != 6 || readV(t, e, "ds1", 1) != 1 {
		t.Fatal("upgraded commit lost")
	}
	xid := []sqltypes.Value{sqltypes.NewString(tx.XID())}
	want := []resource.Statement{
		{SQL: "BEGIN"},
		{SQL: "UPDATE t SET v = 5"},
		{SQL: "UPDATE t SET v = v + 1"},
		{SQL: "XA ADOPT ?", Args: xid},
		{SQL: "XA END ?", Args: xid},
		{SQL: "XA PREPARE ?", Args: xid},
		{SQL: "XA COMMIT ?", Args: xid},
	}
	got := recorded(mu, log)
	if len(got) != len(want) {
		t.Fatalf("ds0 ran %v, want %v", got, want)
	}
	for i := range want {
		if got[i].SQL != want[i].SQL || fmt.Sprint(got[i].Args) != fmt.Sprint(want[i].Args) {
			t.Fatalf("ds0 statement %d is %q %v, want %q %v (all: %v)", i, got[i].SQL, got[i].Args, want[i].SQL, want[i].Args, got)
		}
	}
	m := mgr.Metrics()
	if m["upgrades"] != 1 || m["xa_commits"] != 1 || m["fastpath_commits"] != 0 {
		t.Fatalf("metrics: %v", m)
	}
	recs, _ := mgr.log.List()
	if len(recs) != 0 {
		t.Fatalf("log lingers: %v", recs)
	}
}

// TestTurnsPerTransaction counts the exchanges with the data sources of
// statement A on ds0, statement B on ds0 and ds1, then COMMIT. A branch's
// BEGIN or XA BEGIN rides its first window and XA ADOPT rides the prepare
// batch, so no verb costs a turn of its own: XA takes A, B twice, two
// prepares and two commits (7); LOCAL takes A, B twice and two COMMITs
// (5).
func TestTurnsPerTransaction(t *testing.T) {
	for _, c := range []struct {
		typ  Type
		want int64
	}{{XA, 7}, {Local, 5}} {
		mgr, e := fixture(t, nil)
		turns := countTurns(t, e)
		tx, _ := mgr.Begin(c.typ)
		run(t, mgr, e, tx, unitsOn("ds0", "UPDATE t SET v = 1"))
		run(t, mgr, e, tx, unitsBoth("UPDATE t SET v = v + 1"))
		if err := tx.Commit(bg); err != nil {
			t.Fatal(err)
		}
		if got := turns["ds0"].Load() + turns["ds1"].Load(); got != c.want {
			t.Fatalf("%v: %d turns (ds0 %d, ds1 %d), want %d", c.typ, got, turns["ds0"].Load(), turns["ds1"].Load(), c.want)
		}
		if readV(t, e, "ds0", 0) != 2 || readV(t, e, "ds1", 1) != 1 {
			t.Fatalf("%v: commit lost", c.typ)
		}
	}
}

// TestFailedOpeningLeavesNothingToUndo: the window that carries ds1's
// opening verb fails, either because ds1 breaks on it (BREAK_AFTER set to
// land on it) or because every ds1 call errs. The statement's error is
// typed, ROLLBACK sends ds1 nothing, and both pools get every connection
// back. With the transport intact, ds1's connection goes back to the idle
// pool: a branch that never opened is not marked Broken. (A broken
// transport is discarded by the pool, as any defunct connection is.)
func TestFailedOpeningLeavesNothingToUndo(t *testing.T) {
	for _, typ := range []Type{XA, Local} {
		for _, fault := range []chaos.Fault{{BreakAfter: 1}, {ErrorRate: 1}} {
			where := fmt.Sprintf("%v, %+v", typ, fault)
			mgr, e := fixture(t, nil)
			src1, _ := e.Source("ds1")
			in := chaos.NewInjector()
			in.Apply(src1, fault)
			if fault.BreakAfter > 0 {
				readV(t, e, "ds1", 1) // the one call ds1 answers
			}
			idle := src1.Stats().Idle
			tx, _ := mgr.Begin(typ)
			run(t, mgr, e, tx, unitsOn("ds0", "UPDATE t SET v = 1"))
			units := unitsBoth("UPDATE t SET v = v + 1")
			if err := tx.BeforeStatement(bg, units); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			_, err := e.ExecuteUpdateCtx(bg, units, tx.Held(), nil)
			if err := tx.AfterStatement(bg, units, err); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			var ue *exec.UnitError
			var ie *chaos.InjectedError
			if !errors.As(err, &ue) || ue.DataSource != "ds1" || !errors.As(err, &ie) {
				t.Fatalf("%s: want the injected fault on a ds1 unit, got %v", where, err)
			}
			calls := in.Statuses()[0].Calls
			if err := tx.Rollback(bg); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if n := in.Statuses()[0].Calls - calls; n != 0 {
				t.Fatalf("%s: ROLLBACK made %d calls to the branch that never opened", where, n)
			}
			in.Remove("ds1")
			for _, ds := range []string{"ds0", "ds1"} {
				if src, _ := e.Source(ds); src.Stats().InUse != 0 {
					t.Fatalf("%s: %s has %d connections in use", where, ds, src.Stats().InUse)
				}
			}
			if got := src1.Stats().Idle; fault.ErrorRate > 0 && got != idle {
				t.Fatalf("%s: ds1 has %d idle connections, had %d: its unopened branch's was discarded", where, got, idle)
			}
			if readV(t, e, "ds0", 0) != 0 || readV(t, e, "ds1", 1) != 0 {
				t.Fatalf("%s: rollback left a write", where)
			}
		}
	}
}

func TestXAPrepareFailureRollsBack(t *testing.T) {
	// A second prepared XID with the same name forces a prepare failure on
	// ds0; the whole global transaction must roll back.
	mgr, e := fixture(t, nil)

	// Park a prepared branch with the XID the next transaction will get.
	src, _ := e.Source("ds0")
	conn, _ := src.Acquire()
	if _, err := conn.Exec(bg, "XA BEGIN 'gtx-1'"); err != nil {
		t.Fatal(err)
	}
	// Touch a row the transaction under test will not lock.
	if _, err := conn.Exec(bg, "INSERT INTO t (id, v) VALUES (50, 1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec(bg, "XA END 'gtx-1'"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec(bg, "XA PREPARE 'gtx-1'"); err != nil {
		t.Fatal(err)
	}
	conn.Release()

	tx, _ := mgr.Begin(XA) // xid gtx-1 (fresh manager sequence)
	if tx.XID() != "gtx-1" {
		t.Skipf("xid scheme changed: %s", tx.XID())
	}
	run(t, mgr, e, tx, unitsBoth("UPDATE t SET v = 9"))
	err := tx.Commit(bg)
	if err == nil {
		t.Fatal("commit should fail on duplicate XID prepare")
	}
	var id *InDoubtError
	if errors.As(err, &id) {
		t.Fatalf("prepare failure is a clean abort, not in-doubt: %v", err)
	}
	// Neither source shows the update (ds1's branch rolled back too).
	if readV(t, e, "ds1", 1) != 0 {
		t.Fatal("xa abort incomplete")
	}
	if mgr.Metrics()["prepare_failures"] != 1 {
		t.Fatalf("metrics: %v", mgr.Metrics())
	}
	// The spurious prepare failure must not poison the pools: freshly
	// acquired connections on both sources keep working.
	for _, ds := range []string{"ds0", "ds1"} {
		s, _ := e.Source(ds)
		c, err := s.Acquire()
		if err != nil {
			t.Fatalf("pool %s unusable after aborted prepare: %v", ds, err)
		}
		if _, err := c.Exec(bg, "UPDATE t SET v = v"); err != nil {
			t.Fatalf("conn on %s broken after aborted prepare: %v", ds, err)
		}
		c.Release()
	}
}

// TestCommitHonorsDeadline: a statement deadline that already fired makes
// Commit fail fast instead of committing half a transaction — and the
// abort still reaches the branches (cleanup detaches from the dead
// context), so nothing stays locked or half-applied.
func TestCommitHonorsDeadline(t *testing.T) {
	mgr, e := fixture(t, nil)
	tx, _ := mgr.Begin(XA)
	run(t, mgr, e, tx, unitsBoth("UPDATE t SET v = 9"))
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if err := tx.Commit(ctx); err == nil {
		t.Fatal("commit with expired context succeeded")
	}
	if readV(t, e, "ds0", 0) != 0 || readV(t, e, "ds1", 1) != 0 {
		t.Fatal("expired commit leaked data")
	}

	// Fast path too: the single branch rolls back, the row is untouched.
	tx2, _ := mgr.Begin(XA)
	run(t, mgr, e, tx2, unitsOn("ds0", "UPDATE t SET v = 8"))
	if err := tx2.Commit(ctx); err == nil {
		t.Fatal("fast-path commit with expired context succeeded")
	}
	if readV(t, e, "ds0", 0) != 0 {
		t.Fatal("expired fast-path commit leaked data")
	}
	// The aborted branches left their rows unlocked: a fresh write works.
	src, _ := e.Source("ds0")
	c, _ := src.Acquire()
	if _, err := c.Exec(bg, "UPDATE t SET v = 1 WHERE id = 0"); err != nil {
		t.Fatalf("row still locked after deadline abort: %v", err)
	}
	c.Release()
}

// TestCrashAfterPrepareAborts: the coordinator dies after phase 1 but
// before the decision is logged. Presumed abort: recovery rolls the
// prepared branches back and the data never appears.
func TestCrashAfterPrepareAborts(t *testing.T) {
	mgr, e := fixture(t, nil)
	armed := true
	mgr.SetCrashHook(func(point string) bool {
		if armed && point == CrashAfterPrepare {
			armed = false
			return true
		}
		return false
	})
	tx, _ := mgr.Begin(XA)
	run(t, mgr, e, tx, unitsBoth("UPDATE t SET v = 9"))
	err := tx.Commit(bg)
	if err == nil {
		t.Fatal("crashed commit returned nil")
	}
	var id *InDoubtError
	if errors.As(err, &id) {
		t.Fatalf("undecided crash must not be in-doubt: %v", err)
	}
	n, err := mgr.Recover(bg)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing recovered")
	}
	if readV(t, e, "ds0", 0) != 0 || readV(t, e, "ds1", 1) != 0 {
		t.Fatal("presumed abort failed: data visible")
	}
}

// TestInDoubtTypedErrorAndRecovery: the coordinator dies after the
// decision-point log write. The caller gets the typed InDoubtError (not
// a silent nil), and Recover completes phase 2 exactly once.
func TestInDoubtTypedErrorAndRecovery(t *testing.T) {
	reg := registry.New()
	mgr, e := fixture(t, NewRegistryLog(reg, "/transactions"))
	armed := true
	mgr.SetCrashHook(func(point string) bool {
		if armed && point == CrashAfterLogWrite {
			armed = false
			return true
		}
		return false
	})
	tx, _ := mgr.Begin(XA)
	run(t, mgr, e, tx, unitsBoth("UPDATE t SET v = 9"))
	err := tx.Commit(bg)
	if err == nil {
		t.Fatal("in-doubt commit returned nil")
	}
	var id *InDoubtError
	if !errors.As(err, &id) {
		t.Fatalf("want InDoubtError, got %v", err)
	}
	if id.XID != tx.XID() || len(id.Pending) != 2 {
		t.Fatalf("in-doubt details: %+v", id)
	}
	if mgr.Metrics()["in_doubt"] != 1 {
		t.Fatalf("metrics: %v", mgr.Metrics())
	}

	// A "new" coordinator over the same registry completes the commit.
	mgr2 := NewManager(e, NewRegistryLog(reg, "/transactions"), testMeta{})
	n, err := mgr2.Recover(bg)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d transactions, want 1", n)
	}
	if readV(t, e, "ds0", 0) != 9 || readV(t, e, "ds1", 1) != 9 {
		t.Fatal("recovery did not complete the decided commit")
	}
	// Exactly once: a second pass finds nothing left to resolve.
	if n, _ := mgr2.Recover(bg); n != 0 {
		t.Fatalf("second recovery resolved %d", n)
	}
	recs, _ := mgr2.log.List()
	if len(recs) != 0 {
		t.Fatalf("log lingers: %v", recs)
	}
}

// TestGroupCommitConcurrentRace hammers the group committer: many
// concurrent cross-shard commits over a sync-cost-modeling log. Every
// transaction must land durably, the log must end empty, and the batches
// must actually amortize (fewer store round trips than log operations).
// Run under -race this doubles as the group committer's race test.
func TestGroupCommitConcurrentRace(t *testing.T) {
	const n = 48
	mgr, e := fixture(t, NewDurableLog(NewMemoryLog(), time.Millisecond))
	start := make(chan struct{})
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			tx, err := mgr.Begin(XA)
			if err != nil {
				errs[i] = err
				return
			}
			units := []rewrite.SQLUnit{
				{DataSource: "ds0", SQL: fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", 1000+i, i)},
				{DataSource: "ds1", SQL: fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", 1000+i, i)},
			}
			if err := tx.BeforeStatement(bg, units); err != nil {
				errs[i] = err
				return
			}
			if _, err := e.ExecuteUpdateCtx(context.Background(), units, tx.Held(), nil); err != nil {
				errs[i] = err
				tx.Rollback(bg)
				return
			}
			errs[i] = tx.Commit(bg)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		if readV(t, e, "ds0", 1000+i) != int64(i) || readV(t, e, "ds1", 1000+i) != int64(i) {
			t.Fatalf("tx %d not durable", i)
		}
	}
	recs, _ := mgr.log.List()
	if len(recs) != 0 {
		t.Fatalf("log lingers: %v", recs)
	}
	m := mgr.Metrics()
	if m["xa_commits"] != n {
		t.Fatalf("metrics: %v", m)
	}
	// Each commit submits one write and one delete; grouping means fewer
	// store round trips than operations.
	if m["group_ops"] != 2*n {
		t.Fatalf("group_ops = %d, want %d", m["group_ops"], 2*n)
	}
	if m["group_batches"] >= m["group_ops"] {
		t.Fatalf("group commit never batched: %d batches for %d ops", m["group_batches"], m["group_ops"])
	}
	if m["group_max_batch"] < 2 {
		t.Fatalf("max batch %d", m["group_max_batch"])
	}
}

func TestXARecoveryCommitsDecided(t *testing.T) {
	reg := registry.New()
	log := NewRegistryLog(reg, "/transactions")
	mgr, e := fixture(t, log)

	// Simulate a coordinator crash after the decision: prepare branches by
	// hand and write a decided log record.
	for _, ds := range []string{"ds0", "ds1"} {
		src, _ := e.Source(ds)
		conn, _ := src.Acquire()
		conn.Exec(bg, "XA BEGIN 'crash-1'")
		conn.Exec(bg, "UPDATE t SET v = 42")
		conn.Exec(bg, "XA END 'crash-1'")
		if _, err := conn.Exec(bg, "XA PREPARE 'crash-1'"); err != nil {
			t.Fatal(err)
		}
		conn.Release()
	}
	log.Write(LogRecord{XID: "crash-1", Branches: []string{"ds0", "ds1"}, Decided: true})

	// A "new" coordinator (same registry) recovers and commits.
	mgr2 := NewManager(e, NewRegistryLog(reg, "/transactions"), testMeta{})
	n, err := mgr2.Recover(bg)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing recovered")
	}
	if readV(t, e, "ds0", 0) != 42 || readV(t, e, "ds1", 1) != 42 {
		t.Fatal("recovery did not commit decided branches")
	}
	recs, _ := mgr2.log.List()
	if len(recs) != 0 {
		t.Fatalf("log lingers: %v", recs)
	}
	_ = mgr
}

func TestXARecoveryAbortsUndecided(t *testing.T) {
	mgr, e := fixture(t, nil)
	// Prepared branch with no log record: presumed abort.
	src, _ := e.Source("ds0")
	conn, _ := src.Acquire()
	conn.Exec(bg, "XA BEGIN 'orphan-1'")
	conn.Exec(bg, "UPDATE t SET v = 13")
	conn.Exec(bg, "XA END 'orphan-1'")
	if _, err := conn.Exec(bg, "XA PREPARE 'orphan-1'"); err != nil {
		t.Fatal(err)
	}
	conn.Release()

	n, err := mgr.Recover(bg)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered: %d", n)
	}
	if readV(t, e, "ds0", 0) != 0 {
		t.Fatal("orphan branch committed")
	}
}

func TestParseInDoubtRoundTrip(t *testing.T) {
	in := &InDoubtError{XID: "gtx-7", Pending: []string{"ds1", "ds3"},
		Cause: errors.New("branch ds1: connection reset")}
	// The wire form is just the message; a proxy prefix must not break it.
	msg := "remote server error: " + in.Error()
	out, ok := ParseInDoubt(msg)
	if !ok {
		t.Fatalf("round trip failed: %q", msg)
	}
	if out.XID != "gtx-7" || len(out.Pending) != 2 || out.Pending[0] != "ds1" || out.Pending[1] != "ds3" {
		t.Fatalf("parsed: %+v", out)
	}
	if out.Cause != nil {
		t.Fatal("cause should not survive the wire")
	}
	// No pending list still parses (all branches may have raced to done).
	if got, ok := ParseInDoubt((&InDoubtError{XID: "x"}).Error()); !ok || got.XID != "x" {
		t.Fatalf("minimal form: %+v %v", got, ok)
	}
	if _, ok := ParseInDoubt("ordinary error"); ok {
		t.Fatal("false positive")
	}
	if _, ok := ParseInDoubt(inDoubtMarker + " pending=ds0: no xid"); ok {
		t.Fatal("missing xid accepted")
	}
}

func TestBaseCommit(t *testing.T) {
	mgr, e := fixture(t, nil)
	tx, err := mgr.Begin(Base)
	if err != nil {
		t.Fatal(err)
	}
	run(t, mgr, e, tx, unitsBoth("UPDATE t SET v = 5"))
	// BASE commits locally in phase 1: other connections see it already.
	if readV(t, e, "ds0", 0) != 5 || readV(t, e, "ds1", 1) != 5 {
		t.Fatal("BASE phase-1 local commit missing")
	}
	if err := tx.Commit(bg); err != nil {
		t.Fatal(err)
	}
	st, ok := mgr.Coordinator().Status(tx.XID())
	if !ok || st != StatusCommitted {
		t.Fatalf("tc status: %v %v", st, ok)
	}
}

func TestBaseRollbackCompensates(t *testing.T) {
	mgr, e := fixture(t, nil)
	tx, _ := mgr.Begin(Base)
	run(t, mgr, e, tx, unitsBoth("UPDATE t SET v = 5"))
	run(t, mgr, e, tx, []rewrite.SQLUnit{{DataSource: "ds0", SQL: "INSERT INTO t (id, v) VALUES (100, 1)"}})
	run(t, mgr, e, tx, []rewrite.SQLUnit{{DataSource: "ds1", SQL: "DELETE FROM t WHERE id = 1"}})
	// All locally committed.
	if readV(t, e, "ds0", 100) != 1 || readV(t, e, "ds1", 1) != -1 {
		t.Fatal("BASE local effects missing")
	}
	if err := tx.Rollback(bg); err != nil {
		t.Fatal(err)
	}
	// Compensations restore everything.
	if got := readV(t, e, "ds0", 0); got != 0 {
		t.Fatalf("update compensation: v=%d", got)
	}
	if got := readV(t, e, "ds1", 1); got != 0 {
		t.Fatalf("delete compensation: v=%d", got)
	}
	if readV(t, e, "ds0", 100) != -1 {
		t.Fatal("insert compensation: row still there")
	}
	st, _ := mgr.Coordinator().Status(tx.XID())
	if st != StatusRolledBack {
		t.Fatalf("tc status: %v", st)
	}
}

func TestBaseInsertWithPlaceholders(t *testing.T) {
	mgr, e := fixture(t, nil)
	tx, _ := mgr.Begin(Base)
	units := []rewrite.SQLUnit{{
		DataSource: "ds0",
		SQL:        "INSERT INTO t (id, v) VALUES (?, ?)",
		Args:       []sqltypes.Value{sqltypes.NewInt(200), sqltypes.NewInt(3)},
	}}
	run(t, mgr, e, tx, units)
	if err := tx.Rollback(bg); err != nil {
		t.Fatal(err)
	}
	if readV(t, e, "ds0", 200) != -1 {
		t.Fatal("placeholder insert not compensated")
	}
}

func TestBaseNeedsMeta(t *testing.T) {
	sources := map[string]*resource.DataSource{}
	eng := storage.NewEngine("ds0")
	sources["ds0"] = resource.NewEmbedded(eng, nil)
	mgr := NewManager(exec.New(sources, 1), nil, nil)
	if _, err := mgr.Begin(Base); err == nil {
		t.Fatal("BASE without meta must fail")
	}
}

func TestRegistryLogRoundTrip(t *testing.T) {
	reg := registry.New()
	log := NewRegistryLog(reg, "/tx")
	rec := LogRecord{XID: "x1", Branches: []string{"ds0"}, Decided: true}
	if err := log.Write(rec); err != nil {
		t.Fatal(err)
	}
	recs, err := log.List()
	if err != nil || len(recs) != 1 || recs[0].XID != "x1" || !recs[0].Decided {
		t.Fatalf("list: %v %v", recs, err)
	}
	if err := log.Delete("x1"); err != nil {
		t.Fatal(err)
	}
	if err := log.Delete("x1"); err != nil {
		t.Fatal("idempotent delete")
	}
	recs, _ = log.List()
	if len(recs) != 0 {
		t.Fatalf("lingering: %v", recs)
	}
	// Batch variants: one registry round trip for many records.
	if err := log.WriteBatch([]LogRecord{
		{XID: "b1", Branches: []string{"ds0"}, Decided: true},
		{XID: "b2", Branches: []string{"ds1"}, Decided: true},
	}); err != nil {
		t.Fatal(err)
	}
	recs, _ = log.List()
	if len(recs) != 2 {
		t.Fatalf("batch write: %v", recs)
	}
	if err := log.DeleteBatch([]string{"b1", "b2", "missing"}); err != nil {
		t.Fatal(err)
	}
	recs, _ = log.List()
	if len(recs) != 0 {
		t.Fatalf("batch delete: %v", recs)
	}
}

func TestUndoSQLGeneration(t *testing.T) {
	row := sqltypes.Row{sqltypes.NewInt(7), sqltypes.NewString("x'y")}
	ins := insertSQL("t", []string{"id", "v"}, row, nil)
	if ins != "INSERT INTO t (id, v) VALUES (7, 'x''y')" {
		t.Fatalf("insert undo: %s", ins)
	}
	up := updateSQL("t", []string{"id"}, []string{"id", "v"}, row, nil)
	if !strings.Contains(up, "SET v = 'x''y'") || !strings.Contains(up, "WHERE id = 7") {
		t.Fatalf("update undo: %s", up)
	}
}

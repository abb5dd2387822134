package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"shardingsphere/internal/chaos"
	"shardingsphere/internal/digest"
	"shardingsphere/internal/governor"
	"shardingsphere/internal/registry"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/rewrite"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
	"shardingsphere/internal/telemetry"
)

// fixture builds two embedded data sources each holding table t with rows
// keyed 0..9 (ds0) and 10..19 (ds1).
func fixture(t *testing.T, poolSize int) *Executor {
	t.Helper()
	sources := map[string]*resource.DataSource{}
	for d := 0; d < 2; d++ {
		eng := storage.NewEngine(fmt.Sprintf("ds%d", d))
		ds := resource.NewEmbedded(eng, &resource.Options{PoolSize: poolSize})
		conn, err := ds.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Exec(context.Background(), "CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			id := d*10 + i
			if _, err := conn.Exec(context.Background(), fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", id, id%3)); err != nil {
				t.Fatal(err)
			}
		}
		conn.Release()
		sources[eng.Name()] = ds
	}
	return newExecutor(sources, 1, digest.NewHeat())
}

// newExecutor builds an executor as the kernel does, over a governor and a
// collector of its own.
func newExecutor(sources map[string]*resource.DataSource, maxCon int, heat *digest.Heat) *Executor {
	return New(sources, maxCon, governor.New(registry.New(), sources), telemetry.NewCollector(), heat)
}

func unitsFor(sqls map[string][]string) []rewrite.SQLUnit {
	var out []rewrite.SQLUnit
	for _, ds := range []string{"ds0", "ds1"} {
		for _, s := range sqls[ds] {
			out = append(out, rewrite.SQLUnit{DataSource: ds, SQL: s})
		}
	}
	return out
}

// modeOn reports the connection mode the executor plans for the units'
// group on one data source.
func modeOn(e *Executor, units []rewrite.SQLUnit, held *HeldConns, ds string) ConnectionMode {
	groups, _ := e.plan(units, held, nil)
	for _, g := range groups {
		if g.ds == ds {
			return g.mode
		}
	}
	return 0
}

func TestQueryAcrossSources(t *testing.T) {
	e := fixture(t, 8)
	units := unitsFor(map[string][]string{
		"ds0": {"SELECT * FROM t ORDER BY id"},
		"ds1": {"SELECT * FROM t ORDER BY id"},
	})
	res, err := e.QueryCtx(context.Background(), units, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) != 2 {
		t.Fatalf("sets: %d", len(res.Sets))
	}
	rows0, _ := resource.ReadAll(res.Sets[0])
	rows1, _ := resource.ReadAll(res.Sets[1])
	if len(rows0) != 10 || len(rows1) != 10 {
		t.Fatalf("rows: %d %d", len(rows0), len(rows1))
	}
	// One SQL per source with MaxCon 1 → θ=1 → memory-strict (stream).
	if mode := modeOn(e, units, nil, "ds0"); mode != MemoryStrictly {
		t.Fatalf("mode: %v", mode)
	}
}

func TestThetaSelectsConnectionStrict(t *testing.T) {
	e := fixture(t, 8) // MaxCon = 1
	// Two SQLs on one source with MaxCon=1 → θ=2 → connection-strict.
	units := unitsFor(map[string][]string{
		"ds0": {"SELECT * FROM t WHERE id < 5", "SELECT * FROM t WHERE id >= 5"},
	})
	res, err := e.QueryCtx(context.Background(), units, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if mode := modeOn(e, units, nil, "ds0"); mode != ConnectionStrictly {
		t.Fatalf("mode: %v", mode)
	}
	n := 0
	for _, rs := range res.Sets {
		rows, _ := resource.ReadAll(rs)
		n += len(rows)
	}
	if n != 10 {
		t.Fatalf("rows: %d", n)
	}
}

func TestMaxConRaisesParallelism(t *testing.T) {
	sources := map[string]*resource.DataSource{}
	eng := storage.NewEngine("ds0")
	ds := resource.NewEmbedded(eng, &resource.Options{PoolSize: 8})
	conn, _ := ds.Acquire()
	conn.Exec(context.Background(), "CREATE TABLE t (id INT PRIMARY KEY)")
	conn.Exec(context.Background(), "INSERT INTO t VALUES (1), (2), (3), (4)")
	conn.Release()
	sources["ds0"] = ds
	e := newExecutor(sources, 4, nil)
	units := unitsFor(map[string][]string{
		"ds0": {
			"SELECT * FROM t WHERE id = 1", "SELECT * FROM t WHERE id = 2",
			"SELECT * FROM t WHERE id = 3", "SELECT * FROM t WHERE id = 4",
		},
	})
	res, err := e.QueryCtx(context.Background(), units, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	// 4 SQLs / MaxCon 4 → θ=1 → memory-strict.
	if mode := modeOn(e, units, nil, "ds0"); mode != MemoryStrictly {
		t.Fatalf("mode: %v", mode)
	}
	for _, rs := range res.Sets {
		rows, _ := resource.ReadAll(rs)
		if len(rows) != 1 {
			t.Fatalf("rows: %v", rows)
		}
	}
}

// liveConn answers queries with live cursors, as a remote connection
// does: the set it returns is not a *resource.SliceResultSet.
type liveConn struct{ resource.Conn }

func (c liveConn) Query(ctx context.Context, sql string, args ...sqltypes.Value) (resource.ResultSet, error) {
	rs, err := c.Conn.Query(ctx, sql, args...)
	if err != nil {
		return nil, err
	}
	return struct{ resource.ResultSet }{rs}, nil
}

// A memory-strict unit's live cursor pins its connection until the
// cursor is closed.
func TestStreamSetHoldsConnection(t *testing.T) {
	e := fixture(t, 1) // pool of exactly 1 per source
	src, _ := e.Source("ds0")
	src.SetConnInterceptor(func(c resource.Conn) resource.Conn { return liveConn{c} })
	res, err := e.QueryCtx(context.Background(), unitsFor(map[string][]string{
		"ds0": {"SELECT * FROM t"},
	}), nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	// The cursor holds the only pooled connection.
	if st := src.Stats(); st.InUse != 1 {
		t.Fatalf("a live cursor's connection: %d in use, want 1", st.InUse)
	}
	res.Sets[0].Close()
	if st := src.Stats(); st.InUse != 0 {
		t.Fatalf("connection not released on cursor close: %d in use", st.InUse)
	}
}

// A memory-strict unit's result that arrives materialized, as every
// embedded unit's does, frees its connection before the client reads it,
// and its heat cell has its call and its rows all the same.
func TestMaterializedResultFreesConnection(t *testing.T) {
	e := fixture(t, 1)
	h := e.heat
	src, _ := e.Source("ds0")
	units := []rewrite.SQLUnit{{DataSource: "ds0", SQL: "SELECT * FROM t WHERE id < 4", LogicTable: "t_logic", ActualTable: "t_logic_0"}}
	if mode := modeOn(e, units, nil, "ds0"); mode != MemoryStrictly {
		t.Fatalf("mode %v", mode)
	}
	res, err := e.QueryCtx(context.Background(), units, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if st := src.Stats(); st.InUse != 0 {
		t.Fatalf("a materialized result still holds %d connection(s)", st.InUse)
	}
	if _, ok := res.Sets[0].(*resource.SliceResultSet); !ok {
		t.Fatalf("the result is handed over as %T, not as it arrived", res.Sets[0])
	}
	if rows, err := resource.ReadAll(res.Sets[0]); err != nil || len(rows) != 4 {
		t.Fatalf("rows %v, %v", rows, err)
	}
	cells := h.Snapshot(time.Now())
	if len(cells) != 1 || cells[0].Queries != 1 || cells[0].RowsRead != 4 || cells[0].Bytes <= 0 {
		t.Fatalf("heat cells %+v, want one with 1 query and 4 rows", cells)
	}
}

// TestQueryAllocations bounds what QueryCtx allocates over one embedded
// unit beyond what the node allocates for the row: the QueryResult, which
// holds the unit's set, and the pool's connection wrapper. The groups and
// their unit indexes live on the stack, and no lease is taken.
func TestQueryAllocations(t *testing.T) {
	e := fixture(t, 1)
	units := []rewrite.SQLUnit{{DataSource: "ds0", SQL: "SELECT v FROM t WHERE id = ?", Args: []sqltypes.Value{sqltypes.NewInt(3)}}}
	ctx := context.Background()
	src, _ := e.Source("ds0")
	conn, err := src.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	node := testing.AllocsPerRun(200, func() {
		if _, err := conn.Query(ctx, units[0].SQL, units[0].Args...); err != nil {
			t.Fatal(err)
		}
	})
	conn.Release()
	n := testing.AllocsPerRun(200, func() {
		res, err := e.QueryCtx(ctx, units, nil, nil, true)
		if err != nil || len(res.Sets) != 1 {
			t.Fatalf("%v %v", res, err)
		}
	})
	if n > node+2 {
		t.Errorf("QueryCtx over one unit allocates %.0f times, the node %.0f of them: ceiling node + 2", n, node)
	} else {
		t.Logf("QueryCtx over one unit: %.0f allocations, the node's %.0f", n, node)
	}
}

func TestExecuteUpdateAggregates(t *testing.T) {
	e := fixture(t, 4)
	res, err := e.ExecuteUpdateCtx(context.Background(), unitsFor(map[string][]string{
		"ds0": {"UPDATE t SET v = 99 WHERE id < 5"},
		"ds1": {"UPDATE t SET v = 99 WHERE id >= 15"},
	}), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 10 {
		t.Fatalf("affected: %d", res.Affected)
	}
}

// A write outside a transaction pins its own connection per source and
// hands every one back when it returns, whether its units succeeded or one
// failed; the failure cancels its sibling group and is counted.
func TestUpdateReturnsItsOwnConnections(t *testing.T) {
	e := fixture(t, 2)
	inUse := func() int64 {
		var n int64
		for _, name := range []string{"ds0", "ds1"} {
			ds, _ := e.Source(name)
			n += ds.Stats().InUse
		}
		return n
	}
	good := unitsFor(map[string][]string{
		"ds0": {"UPDATE t SET v = 7 WHERE id = 1", "UPDATE t SET v = 7 WHERE id = 2"},
		"ds1": {"UPDATE t SET v = 7 WHERE id = 11"},
	})
	if res, err := e.ExecuteUpdateCtx(context.Background(), good, nil, nil); err != nil || res.Affected != 3 {
		t.Fatalf("affected %d, %v", res.Affected, err)
	}
	if n := inUse(); n != 0 {
		t.Fatalf("%d connections still out after the write", n)
	}
	bad := unitsFor(map[string][]string{
		"ds0": {"UPDATE t SET v = 8 WHERE id = 1"},
		"ds1": {"UPDATE t SET v = 8 WHERE id = 11", "UPDATE missing SET v = 8"},
	})
	var ue *UnitError
	if _, err := e.ExecuteUpdateCtx(context.Background(), bad, nil, nil); !errors.As(err, &ue) || ue.DataSource != "ds1" {
		t.Fatalf("want the ds1 unit's error, got %v", err)
	}
	if n := inUse(); n != 0 {
		t.Fatalf("%d connections still out after the failed write", n)
	}
}

func TestQueryErrorPropagates(t *testing.T) {
	e := fixture(t, 4)
	_, err := e.QueryCtx(context.Background(), unitsFor(map[string][]string{
		"ds0": {"SELECT * FROM missing_table"},
	}), nil, nil, false)
	if err == nil {
		t.Fatal("want error")
	}
	_, err = e.ExecuteUpdateCtx(context.Background(), unitsFor(map[string][]string{
		"ds1": {"UPDATE missing SET x = 1"},
	}), nil, nil)
	if err == nil {
		t.Fatal("want update error")
	}
}

func TestUnknownDataSource(t *testing.T) {
	e := fixture(t, 4)
	_, err := e.QueryCtx(context.Background(), []rewrite.SQLUnit{{DataSource: "nope", SQL: "SELECT 1"}}, nil, nil, false)
	if err == nil {
		t.Fatal("want unknown source error")
	}
}

func TestHeldConnsPinning(t *testing.T) {
	e := fixture(t, 4)
	held := NewHeldConns()
	c1, err := held.Get(context.Background(), e, "ds0")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := held.Get(context.Background(), e, "ds0")
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("held conns must pin per source")
	}
	if len(held.conns) != 1 || held.conns[0].ds != "ds0" {
		t.Fatalf("sources: %v", held.conns)
	}
	// Transactional execution rides the pinned conn serially.
	if _, err := c1.Exec(context.Background(), "BEGIN"); err != nil {
		t.Fatal(err)
	}
	units := unitsFor(map[string][]string{
		"ds0": {"SELECT * FROM t WHERE id = 1"},
	})
	res, err := e.QueryCtx(context.Background(), units, held, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := resource.ReadAll(res.Sets[0])
	if len(rows) != 1 {
		t.Fatalf("tx query rows: %v", rows)
	}
	if mode := modeOn(e, units, held, "ds0"); mode != ConnectionStrictly {
		t.Fatalf("tx mode: %v", mode)
	}
	if _, err := c1.Exec(context.Background(), "ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	held.ReleaseAll()
	if len(held.conns) != 0 {
		t.Fatalf("release all: %v", held.conns)
	}
}

// TestEveryUnitIsObserved: each unit's execution lands in its source's
// execute histogram, and a statement with no trace is always timed.
func TestEveryUnitIsObserved(t *testing.T) {
	e := fixture(t, 4)
	e.QueryCtx(context.Background(), unitsFor(map[string][]string{
		"ds0": {"SELECT * FROM t"},
		"ds1": {"SELECT * FROM t"},
	}), nil, nil, false)
	for _, ds := range []string{"ds0", "ds1"} {
		if n := e.observers[ds].stats.Execute.Count(); n != 1 {
			t.Fatalf("%s: %d executions observed, want 1", ds, n)
		}
	}
}

// TestUnitOutcomesOpenAndCloseTheBreaker: the executor reports every
// unit's outcome to its source's breaker, so transient failures open it
// without a probe, one opening, and after the cool-down a success closes
// it, one close.
func TestUnitOutcomesOpenAndCloseTheBreaker(t *testing.T) {
	fail := true
	sources := map[string]*resource.DataSource{"ds0": resource.NewDataSource("ds0", func() (resource.Conn, error) {
		return &flakyConn{fail: &fail}, nil
	}, nil)}
	g := governor.New(registry.New(), sources)
	e := New(sources, 1, g, telemetry.NewCollector(), nil)
	e.SetRetryPolicy(&RetryPolicy{MaxAttempts: 1}) // isolate breaker from retries
	moves := func() string {
		m := g.ResilienceMetrics()
		return fmt.Sprintf("opens %d, closes %d", m["breaker.ds0.opens"], m["breaker.ds0.closes"])
	}
	units := []rewrite.SQLUnit{{DataSource: "ds0", SQL: "SELECT 1"}}
	for i := 0; i < g.BreakThreshold; i++ {
		if _, err := e.QueryCtx(context.Background(), units, nil, nil, false); err == nil {
			t.Fatal("query should fail")
		}
	}
	if g.BreakerStates()["ds0"] != governor.BreakerOpen {
		t.Fatalf("3 transient outcomes should open the breaker, state %v", g.BreakerStates()["ds0"])
	}
	if got := moves(); got != "opens 1, closes 0" {
		t.Fatalf("breaker moves: %s", got)
	}
	// Recovery: end the cool-down and let a success close the breaker.
	g.CoolDown = 0
	fail = false
	if _, ok := g.Admit([]string{"ds0"}); !ok {
		t.Fatal("breaker should admit the probe")
	}
	if _, err := e.QueryCtx(context.Background(), units, nil, nil, false); err != nil {
		t.Fatal(err)
	}
	if g.BreakerStates()["ds0"] != governor.BreakerClosed {
		t.Fatalf("success should close the breaker, state %v", g.BreakerStates()["ds0"])
	}
	if got := moves(); got != "opens 1, closes 1" {
		t.Fatalf("breaker moves after recovery: %s", got)
	}
}

// TestSQLErrorsLeaveTheBreakerClosed: an SQL error proves the source
// reachable, so any number of them leaves its breaker closed.
func TestSQLErrorsLeaveTheBreakerClosed(t *testing.T) {
	e := fixture(t, 1)
	units := []rewrite.SQLUnit{{DataSource: "ds0", SQL: "SELECT * FROM missing_table"}}
	for i := 0; i < 5; i++ {
		if _, err := e.QueryCtx(context.Background(), units, nil, nil, false); err == nil {
			t.Fatal("query of a missing table should fail")
		}
	}
	if st := e.observers["ds0"].breaker.State(); st != governor.BreakerClosed {
		t.Fatalf("SQL errors must not open the breaker, state %v", st)
	}
}

// flakyConn fails every call with a transient wire error while *fail.
type flakyConn struct{ fail *bool }

func (c *flakyConn) Query(_ context.Context, sql string, args ...sqltypes.Value) (resource.ResultSet, error) {
	if *c.fail {
		return nil, errors.New("read tcp: connection reset by peer")
	}
	return resource.NewSliceResultSet([]string{"a"}, nil), nil
}

func (c *flakyConn) Exec(_ context.Context, sql string, args ...sqltypes.Value) (resource.ExecResult, error) {
	if *c.fail {
		return resource.ExecResult{}, errors.New("read tcp: connection reset by peer")
	}
	return resource.ExecResult{}, nil
}

func (c *flakyConn) Close() error { return nil }

func TestParallelQueriesNoDeadlock(t *testing.T) {
	// Two concurrent multi-SQL queries against a pool of 2 in stream mode:
	// atomic acquisition prevents the A-has-1-waits-2 / B-has-2-waits-1
	// deadlock from the paper.
	sources := map[string]*resource.DataSource{}
	eng := storage.NewEngine("ds0")
	ds := resource.NewEmbedded(eng, &resource.Options{
		PoolSize:       2,
		AcquireTimeout: 2 * time.Second,
	})
	conn, _ := ds.Acquire()
	conn.Exec(context.Background(), "CREATE TABLE t (id INT PRIMARY KEY)")
	conn.Exec(context.Background(), "INSERT INTO t VALUES (1), (2)")
	conn.Release()
	sources["ds0"] = ds
	e := newExecutor(sources, 2, nil)

	units := unitsFor(map[string][]string{
		"ds0": {"SELECT * FROM t WHERE id = 1", "SELECT * FROM t WHERE id = 2"},
	})
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 20; j++ {
				res, err := e.QueryCtx(context.Background(), units, nil, nil, false)
				if err != nil {
					done <- err
					return
				}
				for _, rs := range res.Sets {
					resource.ReadAll(rs)
				}
			}
			done <- nil
		}()
	}
	deadline := time.After(20 * time.Second)
	for i := 0; i < 8; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("deadlock: workers did not finish")
		}
	}
}

func TestArgsPassThrough(t *testing.T) {
	e := fixture(t, 4)
	res, err := e.QueryCtx(context.Background(), []rewrite.SQLUnit{{
		DataSource: "ds0",
		SQL:        "SELECT * FROM t WHERE id = ?",
		Args:       []sqltypes.Value{sqltypes.NewInt(3)},
	}}, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := resource.ReadAll(res.Sets[0])
	if len(rows) != 1 || rows[0][0].I != 3 {
		t.Fatalf("args: %v", rows)
	}
}

// TestHeatCellSweepAllocatesNothing: a repeated sweep over a 50-table
// rule's shards resolves every heat cell without allocating — the cache
// slots are the shard numbers, so fifty shards do not evict each other —
// and RESET DIGESTS still invalidates what the executor cached.
func TestHeatCellSweepAllocatesNothing(t *testing.T) {
	e := newExecutor(map[string]*resource.DataSource{}, 1, digest.NewHeat())
	h := e.heat
	units := make([]rewrite.SQLUnit, 50)
	for i := range units {
		units[i] = rewrite.SQLUnit{
			DataSource:  fmt.Sprintf("ds%d", i%5),
			LogicTable:  "sbtest",
			ActualTable: fmt.Sprintf("sbtest_%d", i),
		}
	}
	sweep := func() {
		for _, u := range units {
			if e.heatCell(u) == nil {
				t.Fatal("no cell")
			}
		}
	}
	sweep() // creates the cells
	slots := map[uint]bool{}
	for _, u := range units {
		slots[heatSlot(u.ActualTable)] = true
	}
	if len(slots) != len(units) {
		t.Fatalf("50 shards share %d cache slots", len(slots))
	}
	if n := testing.AllocsPerRun(100, sweep); n != 0 {
		t.Fatalf("steady-state sweep allocates %v times, want 0", n)
	}
	before := e.heatCell(units[7])
	h.Reset()
	after := e.heatCell(units[7])
	if after == before {
		t.Fatal("cell cached across RESET DIGESTS")
	}
	if e.heatCell(units[7]) != after {
		t.Fatal("cell not re-cached after the reset")
	}
	if n := testing.AllocsPerRun(100, sweep); n != 0 {
		t.Fatalf("sweep after reset allocates %v times, want 0", n)
	}
}

// windowUnits are three reads of table t on ds1, labelled as three shards
// of a logic table so errors and heat cells have something to name.
func windowUnits(middle string) []rewrite.SQLUnit {
	sqls := []string{"SELECT * FROM t WHERE id < 13", middle, "SELECT * FROM t WHERE id >= 15"}
	units := make([]rewrite.SQLUnit, len(sqls))
	for i, sql := range sqls {
		units[i] = rewrite.SQLUnit{DataSource: "ds1", SQL: sql, LogicTable: "t_logic", ActualTable: fmt.Sprintf("t_logic_%d", i)}
	}
	return units
}

// A connection's share runs as one window, on a transaction's held
// connection and under CONNECTION_STRICTLY alike. When unit k fails the
// error is a UnitError naming k's data source and actual table, and the
// connection — which ran the units behind k too — is still good.
func TestWindowFailureNamesItsUnit(t *testing.T) {
	for _, inTx := range []bool{true, false} {
		e := fixture(t, 1)
		var held *HeldConns
		if inTx {
			held = NewHeldConns()
			defer held.ReleaseAll()
		}
		units := windowUnits("SELECT * FROM missing_table")
		if mode := modeOn(e, units, held, "ds1"); mode != ConnectionStrictly {
			t.Fatalf("held=%v: mode %v", inTx, mode)
		}
		_, err := e.QueryCtx(context.Background(), units, held, nil, false)
		var ue *UnitError
		var be *resource.BatchError
		if !errors.As(err, &ue) || !errors.As(err, &be) || be.Index != 1 ||
			ue.DataSource != "ds1" || ue.ActualTable != "t_logic_1" {
			t.Fatalf("held=%v: want a UnitError for unit 1 on ds1/t_logic_1, got %v", inTx, err)
		}
		res, err := e.QueryCtx(context.Background(), windowUnits("SELECT * FROM t WHERE id = 14"), held, nil, false)
		if err != nil {
			t.Fatalf("held=%v: window after the failed one: %v", inTx, err)
		}
		n := 0
		for _, rs := range res.Sets {
			rows, _ := resource.ReadAll(rs)
			n += len(rows)
		}
		if n != 3+1+5 {
			t.Fatalf("held=%v: %d rows, want 9", inTx, n)
		}
	}
}

// The window is timed once, but every unit's heat cell still gets its
// call and the rows its own result held.
func TestWindowChargesHeatPerUnit(t *testing.T) {
	e := fixture(t, 4)
	h := e.heat
	held := NewHeldConns()
	defer held.ReleaseAll()
	if _, err := e.QueryCtx(context.Background(), windowUnits("SELECT * FROM t WHERE id = 14"), held, nil, false); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"t_logic_0": 3, "t_logic_1": 1, "t_logic_2": 5}
	cells := h.Snapshot(time.Now())
	if len(cells) != len(want) {
		t.Fatalf("%d heat cells, want %d: %+v", len(cells), len(want), cells)
	}
	for _, c := range cells {
		if c.Queries != 1 || c.RowsRead != want[c.ActualTable] || c.Bytes <= 0 || c.Errors != 0 {
			t.Fatalf("cell %s: %d queries, %d rows (want 1, %d), %d bytes, %d errors",
				c.ActualTable, c.Queries, c.RowsRead, want[c.ActualTable], c.Bytes, c.Errors)
		}
	}
}

// A source that breaks between two windows fails the second one on its
// first unit, and the connection it ran on leaves the pool instead of
// going back to it; with the fault gone the next window gets a new one.
func TestBrokenWindowConnLeavesThePool(t *testing.T) {
	e := fixture(t, 1)
	ds, _ := e.Source("ds1")
	in := chaos.NewInjector()
	in.Apply(ds, chaos.Fault{BreakAfter: 1})
	units := windowUnits("SELECT * FROM t WHERE id = 14")
	if _, err := e.QueryCtx(context.Background(), units, nil, nil, false); err != nil {
		t.Fatalf("window before the break: %v", err)
	}
	_, err := e.QueryCtx(context.Background(), units, nil, nil, false)
	var ue *UnitError
	var ie *chaos.InjectedError
	if !errors.As(err, &ue) || !errors.As(err, &ie) || ue.ActualTable != "t_logic_0" {
		t.Fatalf("want the injected break on the window's first unit, got %v", err)
	}
	if st := ds.Stats(); st.Idle != 0 || st.InUse != 0 {
		t.Fatalf("the broken connection went back to the pool: %+v", st)
	}
	in.Remove("ds1")
	if _, err := e.QueryCtx(context.Background(), units, nil, nil, false); err != nil {
		t.Fatalf("window on a fresh connection: %v", err)
	}
}

// A branch's opening verb rides the first window; when the batch fails
// on it (index 0, ahead of every unit) no unit ran. Reads and writes alike
// report the verb — its data source and text, no table — and charge no
// shard's heat cell an error.
func TestFailedOpeningVerbBlamesTheVerb(t *testing.T) {
	for _, write := range []bool{false, true} {
		e := fixture(t, 1)
		h := e.heat
		ds, _ := e.Source("ds1")
		in := chaos.NewInjector()
		in.Apply(ds, chaos.Fault{ErrorRate: 1, Seed: 1})
		held := NewHeldConns()
		if err := held.Open(context.Background(), e, "ds1", &resource.Statement{SQL: "BEGIN"}); err != nil {
			t.Fatal(err)
		}
		units := windowUnits("SELECT * FROM t WHERE id = 14")
		var err error
		if write {
			for i := range units {
				units[i].SQL = fmt.Sprintf("UPDATE t SET v = v + 1 WHERE id = %d", 10+i)
			}
			_, err = e.ExecuteUpdateCtx(context.Background(), units, held, nil)
		} else {
			_, err = e.QueryCtx(context.Background(), units, held, nil, false)
		}
		held.ReleaseAll()
		var ue *UnitError
		var be *resource.BatchError
		if !errors.As(err, &ue) || !errors.As(err, &be) || be.Index != 0 ||
			ue.DataSource != "ds1" || ue.LogicTable != "" || ue.ActualTable != "" {
			t.Fatalf("write=%v: want a UnitError for the verb on ds1, got %#v (%v)", write, ue, err)
		}
		for _, c := range h.Snapshot(time.Now()) {
			if c.Errors != 0 {
				t.Fatalf("write=%v: cell %s counts %d errors for a window that failed on its verb", write, c.ActualTable, c.Errors)
			}
		}
	}
}

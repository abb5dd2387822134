package resource

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
)

func newDS(t *testing.T, opts *Options) *DataSource {
	t.Helper()
	e := storage.NewEngine("ds0")
	ds := NewEmbedded(e, opts)
	conn, err := ds.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Release()
	if _, err := conn.Exec(context.Background(), "CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(20))"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec(context.Background(), "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')"); err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestQueryAndExec(t *testing.T) {
	ds := newDS(t, nil)
	conn, err := ds.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Release()
	rs, err := conn.Query(context.Background(), "SELECT * FROM t WHERE id >= ?", sqltypes.NewInt(2))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ReadAll(rs)
	if err != nil || len(rows) != 2 {
		t.Fatalf("rows: %v err: %v", rows, err)
	}
	res, err := conn.Exec(context.Background(), "UPDATE t SET v = 'x' WHERE id = 1")
	if err != nil || res.Affected != 1 {
		t.Fatalf("exec: %+v %v", res, err)
	}
	// Query on an Exec statement errors.
	if _, err := conn.Query(context.Background(), "UPDATE t SET v = 'y'"); err == nil {
		t.Fatal("Query of DML should fail")
	}
}

func TestPoolReusesConnections(t *testing.T) {
	ds := newDS(t, &Options{PoolSize: 1})
	c1, err := ds.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	inner := c1.Conn
	c1.Release()
	c2, err := ds.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if c2.Conn != inner {
		t.Fatal("pool did not reuse the idle connection")
	}
	c2.Release()
}

func TestPoolExhaustion(t *testing.T) {
	ds := newDS(t, &Options{PoolSize: 1, AcquireTimeout: 50 * time.Millisecond})
	c1, err := ds.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Acquire(); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("want exhaustion, got %v", err)
	}
	c1.Release()
	c2, err := ds.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	c2.Release()
}

func TestAcquireUnblocksOnRelease(t *testing.T) {
	ds := newDS(t, &Options{PoolSize: 1, AcquireTimeout: 2 * time.Second})
	c1, _ := ds.Acquire()
	done := make(chan struct{})
	go func() {
		c2, err := ds.Acquire()
		if err == nil {
			c2.Release()
		}
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	c1.Release()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("waiter not released")
	}
}

func TestBrokenConnNotPooled(t *testing.T) {
	ds := newDS(t, &Options{PoolSize: 1})
	c1, _ := ds.Acquire()
	inner := c1.Conn
	c1.Broken = true
	c1.Release()
	c2, err := ds.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if c2.Conn == inner {
		t.Fatal("broken connection was pooled")
	}
	c2.Release()
}

func TestDoubleReleaseIsSafe(t *testing.T) {
	ds := newDS(t, &Options{PoolSize: 2})
	c, _ := ds.Acquire()
	c.Release()
	c.Release() // must not panic or double-pool
	c1, _ := ds.Acquire()
	c2, _ := ds.Acquire()
	c1.Release()
	c2.Release()
}

func TestTransactionsPinnedToConn(t *testing.T) {
	ds := newDS(t, nil)
	c1, _ := ds.Acquire()
	defer c1.Release()
	c2, _ := ds.Acquire()
	defer c2.Release()
	if _, err := c1.Exec(context.Background(), "BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec(context.Background(), "UPDATE t SET v = 'tx' WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	// c2 must not see the in-flight change.
	rs, _ := c2.Query(context.Background(), "SELECT v FROM t WHERE id = 1")
	rows, _ := ReadAll(rs)
	if rows[0][0].S != "a" {
		t.Fatalf("dirty read across conns: %v", rows)
	}
	if _, err := c1.Exec(context.Background(), "COMMIT"); err != nil {
		t.Fatal(err)
	}
	rs, _ = c2.Query(context.Background(), "SELECT v FROM t WHERE id = 1")
	rows, _ = ReadAll(rs)
	if rows[0][0].S != "tx" {
		t.Fatalf("commit invisible: %v", rows)
	}
}

func TestConcurrentAcquireRelease(t *testing.T) {
	ds := newDS(t, &Options{PoolSize: 4})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				c, err := ds.Acquire()
				if err != nil {
					t.Error(err)
					return
				}
				rs, err := c.Query(context.Background(), "SELECT COUNT(*) FROM t")
				if err != nil {
					t.Error(err)
					c.Release()
					return
				}
				rows, _ := ReadAll(rs)
				if rows[0][0].I != 3 {
					t.Errorf("count: %v", rows)
				}
				c.Release()
			}
		}()
	}
	wg.Wait()
}

func TestPoolStats(t *testing.T) {
	ds := newDS(t, &Options{PoolSize: 2, AcquireTimeout: 50 * time.Millisecond})
	var waits, timeouts int
	var waited time.Duration
	var mu sync.Mutex
	ds.SetAcquireObserver(func(wait time.Duration, timedOut bool) {
		mu.Lock()
		defer mu.Unlock()
		waits++
		waited += wait
		if timedOut {
			timeouts++
		}
	})

	c1, err := ds.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ds.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	st := ds.Stats()
	if st.InUse != 2 || st.Idle != 0 {
		t.Fatalf("stats with 2 held conns: %+v", st)
	}
	if _, err := ds.Acquire(); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("want exhaustion, got %v", err)
	}
	st = ds.Stats()
	if st.Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", st.Timeouts)
	}
	if st.WaitTotal < 50*time.Millisecond {
		t.Fatalf("wait total %v should cover the 50ms timeout", st.WaitTotal)
	}
	c1.Release()
	c2.Release()
	st = ds.Stats()
	if st.InUse != 0 || st.Idle != 2 {
		t.Fatalf("stats after release: %+v", st)
	}
	if st.Acquires < 2 {
		t.Fatalf("acquires = %d, want >= 2", st.Acquires)
	}
	mu.Lock()
	defer mu.Unlock()
	if timeouts != 1 || waits == 0 || waited < 50*time.Millisecond {
		t.Fatalf("observer saw waits=%d timeouts=%d waited=%v", waits, timeouts, waited)
	}
}

// TestConnLeaseLifecycle: a lease ties a live cursor to its pooled
// conn — Close closes the cursor first, then returns the conn, and a
// second Close is a no-op (the pool gauge never goes negative).
func TestConnLeaseLifecycle(t *testing.T) {
	ds := newDS(t, &Options{PoolSize: 1})
	pc, err := ds.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := pc.Query(context.Background(), "SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	lease := NewConnLease(rs, pc)
	if got := ds.Stats().InUse; got != 1 {
		t.Fatalf("in-use while leased: %d", got)
	}
	if cols := lease.Columns(); len(cols) != 2 {
		t.Fatalf("lease columns: %v", cols)
	}
	if _, err := lease.Next(); err != nil {
		t.Fatal(err)
	}
	// Close mid-stream: the conn goes back to the pool exactly once.
	if err := lease.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ds.Stats().InUse; got != 0 {
		t.Fatalf("in-use after lease close: %d", got)
	}
	if err := lease.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ds.Stats().InUse; got != 0 {
		t.Fatalf("in-use after double close: %d", got)
	}
	// The pool slot is reusable.
	pc2, err := ds.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	pc2.Release()
}

// cursorConn answers every query with a live cursor (not a slice) and
// counts the cursors it has seen closed.
type cursorConn struct {
	Conn
	closed int
}

func (c *cursorConn) Query(ctx context.Context, sql string, args ...sqltypes.Value) (ResultSet, error) {
	rs, err := c.Conn.Query(ctx, sql, args...)
	if err != nil {
		return nil, err
	}
	return WithCloseHook(rs, func() { c.closed++ }), nil
}

// QueryBatch on a connection that cannot pipeline is the serial loop: an
// embedded connection's results pass through as the slices they are, a
// live cursor is read to its end and closed before the next statement
// runs, and a failure names its statement and returns the sets before it.
func TestQueryBatchFallback(t *testing.T) {
	ds := newDS(t, nil)
	pc, err := ds.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Release()
	ctx := context.Background()
	stmts := []Statement{
		{SQL: "SELECT v FROM t WHERE id <= ?", Args: []sqltypes.Value{sqltypes.NewInt(2)}},
		{SQL: "SELECT v FROM t WHERE id = 3"},
	}
	cur := &cursorConn{Conn: pc.Conn}
	for name, c := range map[string]Conn{"pooled": pc, "embedded": pc.Conn, "cursor": cur} {
		sets, err := QueryBatch(ctx, c, stmts)
		if err != nil || len(sets) != 2 {
			t.Fatalf("%s: %d sets, %v", name, len(sets), err)
		}
		for i, want := range []int{2, 1} {
			s, ok := sets[i].(*SliceResultSet)
			if !ok || len(s.Data) != want || len(s.Cols) != 1 {
				t.Fatalf("%s: set %d is %T with %v", name, i, sets[i], sets[i])
			}
		}
	}
	if cur.closed != 2 {
		t.Fatalf("%d of 2 live cursors closed", cur.closed)
	}
	sets, err := QueryBatch(ctx, pc, append(stmts, Statement{SQL: "SELECT * FROM missing"}, stmts[0]))
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 2 || len(sets) != 2 {
		t.Fatalf("want BatchError at index 2 after 2 sets, got %d sets, %v", len(sets), err)
	}
	// A statement marked Verb runs for its effect and leaves its slot nil;
	// unmarked, a statement without a row set fails the window.
	sets, err = QueryBatch(ctx, pc, append([]Statement{{SQL: "BEGIN", Verb: true}}, stmts...))
	if err != nil || len(sets) != 3 || sets[0] != nil || sets[1] == nil {
		t.Fatalf("window led by a verb: %v %v", sets, err)
	}
	if _, err := QueryBatch(ctx, pc, []Statement{{SQL: "ROLLBACK"}}); !errors.As(err, &be) || be.Index != 0 {
		t.Fatalf("unmarked ROLLBACK in a read window: %v", err)
	}
}

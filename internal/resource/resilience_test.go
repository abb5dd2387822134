package resource

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shardingsphere/internal/sqltypes"
)

// stubConn is a controllable raw connection for pool tests.
type stubConn struct {
	id      int
	defunct atomic.Bool
	closed  atomic.Bool
}

func (c *stubConn) Query(_ context.Context, sql string, args ...sqltypes.Value) (ResultSet, error) {
	return NewSliceResultSet([]string{"a"}, nil), nil
}

func (c *stubConn) Exec(_ context.Context, sql string, args ...sqltypes.Value) (ExecResult, error) {
	return ExecResult{Affected: 1}, nil
}

func (c *stubConn) Close() error { c.closed.Store(true); return nil }

func (c *stubConn) Defunct() bool { return c.defunct.Load() }

func newStubDS(name string, opts *Options) (*DataSource, *atomic.Int64) {
	var created atomic.Int64
	ds := NewDataSource(name, func() (Conn, error) {
		return &stubConn{id: int(created.Add(1))}, nil
	}, opts)
	return ds, &created
}

func TestDefunctIdleReplacedOnAcquire(t *testing.T) {
	ds, created := newStubDS("ds0", &Options{PoolSize: 1})
	c1, err := ds.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	raw := c1.Conn.(*stubConn)
	c1.Release()
	// A datanode restart leaves the pooled conn defunct while idle.
	raw.defunct.Store(true)
	c2, err := ds.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Release()
	got := c2.Conn.(*stubConn)
	if got == raw {
		t.Fatal("pool handed out a defunct idle connection")
	}
	if !raw.closed.Load() {
		t.Fatal("defunct idle conn should be closed")
	}
	if created.Load() != 2 {
		t.Fatalf("want a replacement conn, created %d", created.Load())
	}
	if st := ds.Stats(); st.Discarded != 1 {
		t.Fatalf("discarded counter: %+v", st)
	}
}

func TestAcquireCtxCancelUnblocksWaiter(t *testing.T) {
	ds, _ := newStubDS("ds0", &Options{PoolSize: 1, AcquireTimeout: time.Minute})
	held, err := ds.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer held.Release()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := ds.AcquireCtx(ctx)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter block
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled waiter did not unblock")
	}
}

func TestAcquireCtxExpiredBeforeWait(t *testing.T) {
	ds, _ := newStubDS("ds0", &Options{PoolSize: 1, AcquireTimeout: time.Minute})
	held, _ := ds.Acquire()
	defer held.Release()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ds.AcquireCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestConcurrentExhaustionAndCancellation(t *testing.T) {
	ds, _ := newStubDS("ds0", &Options{PoolSize: 4, AcquireTimeout: 50 * time.Millisecond})
	var wg sync.WaitGroup
	var okCount, cancels, timeouts atomic.Int64
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i%3 == 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 5*time.Millisecond)
				defer cancel()
			}
			conn, err := ds.AcquireCtx(ctx)
			switch {
			case err == nil:
				time.Sleep(time.Millisecond)
				conn.Release()
				okCount.Add(1)
			case errors.Is(err, context.DeadlineExceeded):
				cancels.Add(1)
			case errors.Is(err, ErrPoolExhausted):
				timeouts.Add(1)
			default:
				t.Errorf("unexpected acquire error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if okCount.Load() == 0 {
		t.Fatal("no acquisition succeeded")
	}
	// Pool must be consistent afterwards: all capacity accounted for.
	st := ds.Stats()
	if st.InUse != 0 || st.Waiters != 0 {
		t.Fatalf("pool leaked: %+v", st)
	}
	for i := 0; i < 4; i++ {
		c, err := ds.Acquire()
		if err != nil {
			t.Fatalf("capacity lost after churn: %v (acquired %d)", err, i)
		}
		defer c.Release()
	}
}

func TestConnInterceptorWrapsCheckoutOnly(t *testing.T) {
	ds, _ := newStubDS("ds0", &Options{PoolSize: 1})
	type wrapped struct{ Conn }
	ds.SetConnInterceptor(func(c Conn) Conn { return &wrapped{Conn: c} })
	c1, err := ds.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c1.Conn.(*wrapped); !ok {
		t.Fatalf("interceptor not applied: %T", c1.Conn)
	}
	raw := c1.raw.(*stubConn)
	c1.Release()
	// The raw conn, not the wrapper, returns to the pool.
	ds.SetConnInterceptor(nil)
	c2, err := ds.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Release()
	if c2.Conn.(*stubConn) != raw {
		t.Fatal("raw conn was not pooled")
	}
}

func TestIsTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{ErrPoolExhausted, true},
		{fmt.Errorf("wrapped: %w", ErrPoolExhausted), true},
		{ErrConnClosed, true},
		{io.ErrUnexpectedEOF, true},
		{errors.New("read tcp 1.2.3.4: connection reset by peer"), true},
		{errors.New("write: broken pipe"), true},
		{errors.New("dial: connection refused"), true},
		{errors.New("conn is defunct"), true},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{fmt.Errorf("acquire: %w", context.DeadlineExceeded), false},
		{errors.New("sqlexec: no such table t"), false},
		{errors.New("syntax error at position 3"), false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// transientErr proves the TransientError interface wins over markers.
type transientErr struct{ transient bool }

func (e *transientErr) Error() string   { return "custom failure" }
func (e *transientErr) Transient() bool { return e.transient }

func TestIsTransientInterface(t *testing.T) {
	if !IsTransient(&transientErr{transient: true}) {
		t.Fatal("TransientError(true) should classify transient")
	}
	if IsTransient(&transientErr{transient: false}) {
		t.Fatal("TransientError(false) should classify permanent")
	}
	if !IsTransient(fmt.Errorf("outer: %w", &transientErr{transient: true})) {
		t.Fatal("wrapped TransientError should classify transient")
	}
}

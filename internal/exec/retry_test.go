package exec

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"shardingsphere/internal/resource"
	"shardingsphere/internal/rewrite"
	"shardingsphere/internal/sqltypes"
)

// flapConn fails its first failN queries with a transient error, then
// succeeds.
type flapConn struct {
	failN *atomic.Int64
}

func (c *flapConn) Query(_ context.Context, sql string, args ...sqltypes.Value) (resource.ResultSet, error) {
	if c.failN.Add(-1) >= 0 {
		return nil, errors.New("read tcp: connection reset by peer")
	}
	return resource.NewSliceResultSet([]string{"a"}, []sqltypes.Row{{sqltypes.NewInt(1)}}), nil
}

func (c *flapConn) Exec(_ context.Context, sql string, args ...sqltypes.Value) (resource.ExecResult, error) {
	if c.failN.Add(-1) >= 0 {
		return resource.ExecResult{}, errors.New("read tcp: connection reset by peer")
	}
	return resource.ExecResult{Affected: 1}, nil
}

func (c *flapConn) Close() error { return nil }

// hangConn blocks queries until its context is cancelled.
type hangConn struct{}

func (c *hangConn) Query(ctx context.Context, sql string, args ...sqltypes.Value) (resource.ResultSet, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func (c *hangConn) Exec(ctx context.Context, sql string, args ...sqltypes.Value) (resource.ExecResult, error) {
	<-ctx.Done()
	return resource.ExecResult{}, ctx.Err()
}

func (c *hangConn) Close() error { return nil }

func srcOf(name string, factory resource.ConnFactory) *resource.DataSource {
	return resource.NewDataSource(name, factory, &resource.Options{PoolSize: 4})
}

func TestQueryRetriesTransientFailure(t *testing.T) {
	var failN atomic.Int64
	failN.Store(2) // first two calls fail, third succeeds
	e := newExecutor(map[string]*resource.DataSource{
		"ds0": srcOf("ds0", func() (resource.Conn, error) { return &flapConn{failN: &failN}, nil }),
	}, 1, nil)
	units := []rewrite.SQLUnit{{DataSource: "ds0", SQL: "SELECT 1"}}
	res, err := e.QueryCtx(context.Background(), units, nil, nil, true)
	if err != nil {
		t.Fatalf("retry should recover: %v", err)
	}
	for _, rs := range res.Sets {
		rs.Close()
	}
	m := e.Metrics()
	if m["retries"] != 2 || m["retry_success"] != 1 {
		t.Fatalf("retry counters: %v", m)
	}
}

func TestQueryRetryBudgetExhausted(t *testing.T) {
	var failN atomic.Int64
	failN.Store(1000)
	e := newExecutor(map[string]*resource.DataSource{
		"ds0": srcOf("ds0", func() (resource.Conn, error) { return &flapConn{failN: &failN}, nil }),
	}, 1, nil)
	e.SetRetryPolicy(&RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	units := []rewrite.SQLUnit{{DataSource: "ds0", SQL: "SELECT 1"}}
	_, err := e.QueryCtx(context.Background(), units, nil, nil, true)
	if err == nil || !resource.IsTransient(err) {
		t.Fatalf("want the transient error after budget exhaustion, got %v", err)
	}
	if m := e.Metrics(); m["retries"] != 2 {
		t.Fatalf("want MaxAttempts-1 retries, got %v", m)
	}
}

func TestQueryNoRetryWhenDisabled(t *testing.T) {
	var failN atomic.Int64
	failN.Store(1000)
	e := newExecutor(map[string]*resource.DataSource{
		"ds0": srcOf("ds0", func() (resource.Conn, error) { return &flapConn{failN: &failN}, nil }),
	}, 1, nil)
	units := []rewrite.SQLUnit{{DataSource: "ds0", SQL: "SELECT 1"}}
	// retry=false models a read inside a transaction.
	if _, err := e.QueryCtx(context.Background(), units, nil, nil, false); err == nil {
		t.Fatal("query should fail")
	}
	if m := e.Metrics(); m["retries"] != 0 {
		t.Fatalf("non-idempotent path must not retry: %v", m)
	}
}

func TestPermanentErrorNotRetried(t *testing.T) {
	e := fixture(t, 2)
	units := []rewrite.SQLUnit{{DataSource: "ds0", SQL: "SELECT * FROM missing"}}
	if _, err := e.QueryCtx(context.Background(), units, nil, nil, true); err == nil {
		t.Fatal("query of missing table should fail")
	}
	if m := e.Metrics(); m["retries"] != 0 {
		t.Fatalf("permanent error must not be retried: %v", m)
	}
}

func TestDeadlineCancelsFanout(t *testing.T) {
	e := newExecutor(map[string]*resource.DataSource{
		"h0": srcOf("h0", func() (resource.Conn, error) { return &hangConn{}, nil }),
		"h1": srcOf("h1", func() (resource.Conn, error) { return &hangConn{}, nil }),
	}, 1, nil)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	units := []rewrite.SQLUnit{
		{DataSource: "h0", SQL: "SELECT 1"},
		{DataSource: "h1", SQL: "SELECT 1"},
	}
	start := time.Now()
	_, err := e.QueryCtx(ctx, units, nil, nil, true)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if elapsed > 200*time.Millisecond {
		t.Fatalf("deadline overshot: %v", elapsed)
	}
	// No goroutine leak: the hung workers unblocked on cancellation.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

// gateConn answers statements as the test decides: a statement fails at
// once with fail, or, with gate set, waits for the gate to open (then
// succeeds) or for its context to end. entered is signalled as a statement
// arrives.
type gateConn struct {
	fail    error
	gate    chan struct{}
	entered chan struct{}
}

func (c *gateConn) answer(ctx context.Context) error {
	c.entered <- struct{}{}
	if c.fail != nil {
		return c.fail
	}
	select {
	case <-c.gate:
	case <-ctx.Done():
	}
	// An answer that arrives after the context ended is not read.
	return ctx.Err()
}

func (c *gateConn) Query(ctx context.Context, sql string, args ...sqltypes.Value) (resource.ResultSet, error) {
	if err := c.answer(ctx); err != nil {
		return nil, err
	}
	return resource.NewSliceResultSet([]string{"v"}, []sqltypes.Row{{sqltypes.NewInt(1)}}), nil
}

func (c *gateConn) Exec(ctx context.Context, sql string, args ...sqltypes.Value) (resource.ExecResult, error) {
	if err := c.answer(ctx); err != nil {
		return resource.ExecResult{}, err
	}
	return resource.ExecResult{Affected: 1}, nil
}

// ExecBatch answers a window as one statement: a failed one names its last
// statement (a unit, behind any verb); one whose context ended first
// reports index 0, as a remote pipeline cut off before its first answer
// was read does, whatever the node ran.
func (c *gateConn) ExecBatch(ctx context.Context, stmts []resource.Statement) ([]resource.ExecResult, error) {
	if _, err := c.Exec(ctx, stmts[0].SQL); err != nil {
		if c.fail != nil {
			return nil, &resource.BatchError{Index: len(stmts) - 1, Err: err}
		}
		return nil, &resource.BatchError{Index: 0, Err: err}
	}
	return make([]resource.ExecResult, len(stmts)), nil
}

func (c *gateConn) QueryBatch(context.Context, []resource.Statement) ([]resource.ResultSet, error) {
	return nil, errors.New("gateConn: no reads")
}

func (c *gateConn) Close() error { return nil }

// gateSources returns an executor over "bad", whose statements fail, and
// "slow", whose statements wait for gate, each signalling entered.
func gateSources(gate, entered chan struct{}) *Executor {
	return newExecutor(map[string]*resource.DataSource{
		"bad": srcOf("bad", func() (resource.Conn, error) {
			return &gateConn{fail: errors.New("bad: duplicate primary key"), entered: entered}, nil
		}),
		"slow": srcOf("slow", func() (resource.Conn, error) { return &gateConn{gate: gate, entered: entered}, nil }),
	}, 1, nil)
}

// awaitWindows waits until both sources' windows have arrived, failing if
// the statement returns first.
func awaitWindows(t *testing.T, entered chan struct{}, done chan error) {
	t.Helper()
	for range 2 {
		select {
		case <-entered:
		case err := <-done:
			t.Fatalf("the statement returned before every window answered: %v", err)
		}
	}
}

// TestFailedReadWaitsForEveryWindow is TestFailedWriteWaitsForEveryWindow's
// read twin: a read fan-out with a failed source returns only after every
// other source's window has answered, with the failed source's error; a
// deadline still ends a window that never answers.
func TestFailedReadWaitsForEveryWindow(t *testing.T) {
	gate, entered := make(chan struct{}), make(chan struct{}, 2)
	e := gateSources(gate, entered)
	units := []rewrite.SQLUnit{
		{DataSource: "bad", SQL: "SELECT v FROM t"},
		{DataSource: "slow", SQL: "SELECT v FROM t"},
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.QueryCtx(context.Background(), units, nil, nil, true)
		done <- err
	}()
	awaitWindows(t, entered, done)
	select {
	case err := <-done:
		t.Fatalf("the read returned before every window answered: %v", err)
	default:
	}
	close(gate)
	if err := <-done; err == nil || !strings.Contains(err.Error(), "duplicate primary key") {
		t.Fatalf("want the bad source's failure, got %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	hung := gateSources(make(chan struct{}), make(chan struct{}, 2))
	if _, err := hung.QueryCtx(ctx, units, nil, nil, true); err == nil {
		t.Fatal("the read succeeded")
	}
	if ctx.Err() == nil {
		t.Fatal("the read returned before its deadline ended the hung window")
	}
}

// TestFailedWriteWaitsForEveryWindow: a write fan-out with a failed source
// returns only after every other source's window has answered, with the
// failure; a deadline still ends a window that never answers. DML is never
// retried.
func TestFailedWriteWaitsForEveryWindow(t *testing.T) {
	gate, entered := make(chan struct{}), make(chan struct{}, 2)
	e := gateSources(gate, entered)
	units := []rewrite.SQLUnit{
		{DataSource: "bad", SQL: "UPDATE t SET v = 1"},
		{DataSource: "slow", SQL: "UPDATE t SET v = 1"},
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.ExecuteUpdateCtx(context.Background(), units, nil, nil)
		done <- err
	}()
	// Both windows run, and "slow" cannot answer until the gate opens.
	awaitWindows(t, entered, done)
	select {
	case err := <-done:
		t.Fatalf("the write returned before every window answered: %v", err)
	default:
	}
	close(gate)
	if err := <-done; err == nil || !strings.Contains(err.Error(), "duplicate primary key") {
		t.Fatalf("want the bad source's failure, got %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	hung := gateSources(make(chan struct{}), make(chan struct{}, 2))
	if _, err := hung.ExecuteUpdateCtx(ctx, units, nil, nil); err == nil {
		t.Fatal("the write succeeded")
	}
	if ctx.Err() == nil {
		t.Fatal("the write returned before its deadline ended the hung window")
	}
	for _, ex := range []*Executor{e, hung} {
		if m := ex.Metrics(); m["retries"] != 0 {
			t.Fatalf("DML retried: %v", m)
		}
	}
}

// TestFailedWriteKeepsItsBranchesKnown: in a transaction, source "slow"'s
// branch opens with BEGIN in a window that answers only after "bad" has
// failed, and a window whose context ends first reports index 0, as a
// remote pipeline cut off before its first answer does. The window is not
// cut off: it completes, and the branch is open, so a commit or rollback
// reaches it.
func TestFailedWriteKeepsItsBranchesKnown(t *testing.T) {
	gate, entered := make(chan struct{}), make(chan struct{}, 2)
	e := gateSources(gate, entered)
	held := NewHeldConns()
	defer held.ReleaseAll()
	for _, ds := range []string{"bad", "slow"} {
		if err := held.Open(context.Background(), e, ds, &resource.Statement{SQL: "BEGIN"}); err != nil {
			t.Fatal(err)
		}
	}
	units := []rewrite.SQLUnit{
		{DataSource: "bad", SQL: "INSERT INTO t VALUES (1)"},
		{DataSource: "slow", SQL: "INSERT INTO t VALUES (2)"},
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.ExecuteUpdateCtx(context.Background(), units, held, nil)
		done <- err
	}()
	awaitWindows(t, entered, done)
	close(gate)
	if err := <-done; err == nil || !strings.Contains(err.Error(), "duplicate primary key") {
		t.Fatalf("want the bad source's failure, got %v", err)
	}
	if _, open := held.Peek("slow"); !open {
		t.Fatal("slow's BEGIN ran, but its branch reads as never opened")
	}
	if _, open := held.Peek("bad"); !open {
		t.Fatal("bad's window failed on its unit, after BEGIN, but its branch reads as never opened")
	}
}

func TestBackoffJitterWithinWindow(t *testing.T) {
	p := &RetryPolicy{MaxAttempts: 5, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 16 * time.Millisecond}
	for retry := 1; retry <= 8; retry++ {
		for i := 0; i < 50; i++ {
			d := p.backoff(retry)
			if d <= 0 || d > p.MaxBackoff {
				t.Fatalf("backoff(%d) = %v outside (0, %v]", retry, d, p.MaxBackoff)
			}
		}
	}
}

func TestFirstErrorPrefersRealCause(t *testing.T) {
	real := errors.New("shard exploded")
	cases := []struct {
		errs []error
		want error
	}{
		{[]error{nil, nil}, nil},
		{[]error{context.DeadlineExceeded, real, context.DeadlineExceeded}, real},
		{[]error{nil, context.DeadlineExceeded}, context.DeadlineExceeded},
		{[]error{context.DeadlineExceeded, context.Canceled}, context.Canceled},
	}
	for _, c := range cases {
		if got := firstError(c.errs); !errors.Is(got, c.want) && got != c.want {
			t.Fatalf("firstError(%v) = %v, want %v", c.errs, got, c.want)
		}
	}
}

package governor

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"shardingsphere/internal/exec"
	"shardingsphere/internal/registry"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/rewrite"
	"shardingsphere/internal/sqltypes"
)

func openBreaker(t *testing.T, b *Breaker) {
	t.Helper()
	err := errors.New("boom")
	for i := 0; i < b.threshold; i++ {
		b.Observe(err)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("breaker should be open, got %v", b.State())
	}
}

func TestBreakerHalfOpenAdmitsSingleProbe(t *testing.T) {
	b := &Breaker{threshold: 3, coolDown: 20 * time.Millisecond}
	openBreaker(t, b)
	if b.Allow() {
		t.Fatal("open breaker must block")
	}
	time.Sleep(25 * time.Millisecond)
	// Exactly one caller wins the probe slot; the stampede is rejected.
	if !b.Allow() {
		t.Fatal("cool-down elapsed: first caller should be admitted as probe")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state: %v", b.State())
	}
	for i := 0; i < 10; i++ {
		if b.Allow() {
			t.Fatal("second caller admitted during in-flight probe (thundering herd)")
		}
	}
	// Probe succeeds: closed, traffic flows.
	b.Observe(nil)
	if b.State() != BreakerClosed || !b.Allow() || !b.Allow() {
		t.Fatalf("breaker should close after probe success, state %v", b.State())
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	b := &Breaker{threshold: 3, coolDown: 20 * time.Millisecond}
	openBreaker(t, b)
	time.Sleep(25 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("probe should be admitted")
	}
	b.Observe(errors.New("still down"))
	if b.State() != BreakerOpen {
		t.Fatalf("failed probe must re-open, got %v", b.State())
	}
	if b.Allow() {
		t.Fatal("re-opened breaker must block for a full cool-down")
	}
	opens, closes := b.transitions()
	if opens != 2 || closes != 0 {
		t.Fatalf("transitions: opens=%d closes=%d", opens, closes)
	}
}

func TestBreakerStuckProbeEscape(t *testing.T) {
	b := &Breaker{threshold: 3, coolDown: 20 * time.Millisecond}
	openBreaker(t, b)
	time.Sleep(25 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("probe should be admitted")
	}
	// The probe never reports (caller died). After another cool-down the
	// slot is reclaimed so the source is not blocked forever.
	if b.Allow() {
		t.Fatal("slot should stay claimed inside the window")
	}
	time.Sleep(25 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("stuck probe slot should be reclaimable after the window")
	}
}

func TestBreakerAllowConcurrentSingleWinner(t *testing.T) {
	b := &Breaker{threshold: 3, coolDown: 10 * time.Millisecond}
	openBreaker(t, b)
	time.Sleep(15 * time.Millisecond)
	var admitted int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.Allow() {
				mu.Lock()
				admitted++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if admitted != 1 {
		t.Fatalf("want exactly 1 admitted probe, got %d", admitted)
	}
}

// flakyConn fails every call with a transient wire error.
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

func TestAttachExecOutcomesOpensBreakerAndNotifies(t *testing.T) {
	fail := true
	src := resource.NewDataSource("ds0", func() (resource.Conn, error) {
		return &flakyConn{fail: &fail}, nil
	}, nil)
	e := exec.New(map[string]*resource.DataSource{"ds0": src}, 1)
	e.SetRetryPolicy(&exec.RetryPolicy{MaxAttempts: 1}) // isolate breaker from retries
	g := New(registry.New(), e)
	g.AttachExecOutcomes()
	var events []string
	g.Subscribe(func(ds string, up bool) {
		events = append(events, fmt.Sprintf("%s=%v", ds, up))
	})
	units := []rewrite.SQLUnit{{DataSource: "ds0", SQL: "SELECT 1"}}
	for i := 0; i < 3; i++ {
		if _, err := e.QueryCtx(context.Background(), units, nil, nil, false); err == nil {
			t.Fatal("query should fail")
		}
	}
	if g.BreakerStates()["ds0"] != BreakerOpen {
		t.Fatalf("3 transient outcomes should open the breaker, state %v", g.BreakerStates()["ds0"])
	}
	if len(events) != 1 || events[0] != "ds0=false" {
		t.Fatalf("health events: %v", events)
	}
	// Recovery: cool the breaker down quickly and let a success close it.
	g.CoolDown = time.Millisecond
	gb := g.breaker("ds0")
	gb.mu.Lock()
	gb.coolDown = time.Millisecond
	gb.mu.Unlock()
	fail = false
	time.Sleep(5 * time.Millisecond)
	if !g.Allow("ds0") {
		t.Fatal("breaker should admit the probe")
	}
	if _, err := e.QueryCtx(context.Background(), units, nil, nil, false); err != nil {
		t.Fatal(err)
	}
	if g.BreakerStates()["ds0"] != BreakerClosed {
		t.Fatalf("success should close the breaker, state %v", g.BreakerStates()["ds0"])
	}
	if len(events) != 2 || events[1] != "ds0=true" {
		t.Fatalf("recovery events: %v", events)
	}
	m := g.ResilienceMetrics()
	if m["breaker.ds0.opens"] != 1 || m["breaker.ds0.closes"] != 1 {
		t.Fatalf("resilience metrics: %v", m)
	}
}

func TestAttachExecOutcomesIgnoresSQLErrors(t *testing.T) {
	g, _, e := fixture(t)
	g.AttachExecOutcomes()
	units := []rewrite.SQLUnit{{DataSource: "ds0", SQL: "SELECT * FROM missing_table"}}
	for i := 0; i < 5; i++ {
		if _, err := e.QueryCtx(context.Background(), units, nil, nil, false); err == nil {
			t.Fatal("query of a missing table should fail")
		}
	}
	if g.BreakerStates()["ds0"] != BreakerClosed {
		t.Fatalf("SQL errors must not open the breaker, state %v", g.BreakerStates()["ds0"])
	}
}

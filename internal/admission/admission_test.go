package admission

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shardingsphere/internal/resource"
)

func TestFastPathAdmit(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 2})
	rel, wait, err := c.Acquire("default", 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if wait != 0 {
		t.Fatalf("fast path wait = %v, want 0", wait)
	}
	rel()
	rel() // idempotent
	m := c.Metrics()
	if m["admitted"] != 1 || m["running"] != 0 {
		t.Fatalf("metrics = %v", m)
	}
}

func TestQueueFullShed(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 1, QueueDepth: 1, MaxQueueWait: time.Second})
	rel, _, err := c.Acquire("a", 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r, _, err := c.Acquire("a", 0)
		if err != nil {
			t.Errorf("queued acquire: %v", err)
			return
		}
		r()
	}()
	waitQueued(t, c, 1)
	_, _, err = c.Acquire("a", 0)
	var ov *OverloadedError
	if !errors.As(err, &ov) || ov.Reason != ReasonQueueFull {
		t.Fatalf("want queue_full shed, got %v", err)
	}
	if !resource.IsTransient(err) {
		t.Fatal("overload error must be transient")
	}
	rel()
	wg.Wait()
}

func TestDeadlineShed(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 1, QueueDepth: 16, MaxQueueWait: time.Second})
	// Teach the service-time estimate ~20ms.
	rel, _, err := c.Acquire("a", 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	c.mu.Lock()
	c.svcEWMA = float64(20 * time.Millisecond)
	c.mu.Unlock()
	// Slot busy, predicted wait 20ms, budget 1ms: shed at the door.
	_, _, err = c.Acquire("a", time.Millisecond)
	var ov *OverloadedError
	if !errors.As(err, &ov) || ov.Reason != ReasonDeadline {
		t.Fatalf("want deadline shed, got %v", err)
	}
	if ov.RetryAfter <= 0 {
		t.Fatalf("retry-after hint missing: %v", ov)
	}
	rel()
}

func TestSojournTimeout(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 1, QueueDepth: 16, MaxQueueWait: 10 * time.Millisecond})
	rel, _, err := c.Acquire("a", 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	start := time.Now()
	_, _, err = c.Acquire("a", 0)
	var ov *OverloadedError
	if !errors.As(err, &ov) || ov.Reason != ReasonTimeout {
		t.Fatalf("want sojourn timeout, got %v", err)
	}
	if el := time.Since(start); el < 10*time.Millisecond {
		t.Fatalf("timed out too early: %v", el)
	}
	rel()
	if got := c.Metrics()["shed_timeout"]; got != 1 {
		t.Fatalf("shed_timeout = %d", got)
	}
}

func TestWeightedFairDispatch(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 1})
	if err := c.SetWeight("heavy", 3); err != nil {
		t.Fatal(err)
	}
	if err := c.SetWeight("bad", -1); err == nil {
		t.Fatal("negative weight accepted")
	}
	// White-box: hold the slot, queue 12 waiters per tenant, then hand
	// the slot through dispatchLocked and count who gets it.
	c.mu.Lock()
	c.running = 1
	waiters := map[string][]*waiter{}
	for _, tn := range []string{"light", "heavy"} {
		tt := c.tenantLocked(tn)
		for i := 0; i < 12; i++ {
			w := &waiter{ready: make(chan struct{}), at: time.Now()}
			tt.q = append(tt.q, w)
			c.queued++
			waiters[tn] = append(waiters[tn], w)
		}
	}
	counts := map[string]int{}
	for i := 0; i < 8; i++ {
		c.dispatchLocked() // admits one waiter, transfers the slot
		for tn, ws := range waiters {
			for _, w := range ws {
				if w.state.Load() == wAdmitted {
					counts[tn]++
					w.state.Store(wAbandoned + 1) // stop double-counting
				}
			}
		}
	}
	c.mu.Unlock()
	if counts["heavy"] < 5 || counts["light"] > 3 {
		t.Fatalf("stride schedule off: heavy=%d light=%d (want ~3:1)", counts["heavy"], counts["light"])
	}
}

func TestDrain(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 2})
	rel, _, err := c.Acquire("a", 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	c.BeginDrain()
	_, _, err = c.Acquire("a", 0)
	var ov *OverloadedError
	if !errors.As(err, &ov) || ov.Reason != ReasonDraining {
		t.Fatalf("want draining shed, got %v", err)
	}
	if c.WaitIdle(time.Millisecond) {
		t.Fatal("idle while a statement is running")
	}
	rel()
	if !c.WaitIdle(time.Second) {
		t.Fatal("not idle after release")
	}
}

func TestConnCap(t *testing.T) {
	c := NewController(Config{MaxConns: 2})
	if err := c.AdmitConn(); err != nil {
		t.Fatal(err)
	}
	if err := c.AdmitConn(); err != nil {
		t.Fatal(err)
	}
	err := c.AdmitConn()
	var ov *OverloadedError
	if !errors.As(err, &ov) || ov.Reason != ReasonConnLimit {
		t.Fatalf("want conn_limit, got %v", err)
	}
	c.ReleaseConn()
	if err := c.AdmitConn(); err != nil {
		t.Fatalf("after release: %v", err)
	}
	if got := c.Metrics()["conns_peak"]; got != 2 {
		t.Fatalf("conns_peak = %d", got)
	}
}

func TestParseOverloadedRoundTrip(t *testing.T) {
	in := &OverloadedError{Reason: ReasonDeadline, RetryAfter: 42 * time.Millisecond}
	wrapped := fmt.Sprintf("remote: %s", in.Error()) // prefixes survive
	out, ok := ParseOverloaded(wrapped)
	if !ok {
		t.Fatalf("parse failed: %q", wrapped)
	}
	if out.Reason != in.Reason || out.RetryAfter != in.RetryAfter {
		t.Fatalf("round trip lost fields: %+v", out)
	}
	if _, ok := ParseOverloaded("some other error"); ok {
		t.Fatal("false positive parse")
	}
}

func TestCoDelOverloadState(t *testing.T) {
	c := NewController(Config{Target: time.Millisecond, Interval: 10 * time.Millisecond})
	base := time.Now()
	c.mu.Lock()
	c.observeSojournLocked(5*time.Millisecond, base)
	if c.overloaded {
		c.mu.Unlock()
		t.Fatal("overloaded after a single bad sojourn")
	}
	c.observeSojournLocked(5*time.Millisecond, base.Add(15*time.Millisecond))
	if !c.overloaded {
		c.mu.Unlock()
		t.Fatal("not overloaded after sustained bad sojourn")
	}
	c.observeSojournLocked(100*time.Microsecond, base.Add(20*time.Millisecond))
	if c.overloaded {
		c.mu.Unlock()
		t.Fatal("overload state did not clear on good sojourn")
	}
	c.mu.Unlock()
	if got := c.Metrics()["overload_flips"]; got != 1 {
		t.Fatalf("overload_flips = %d", got)
	}
}

// TestConcurrentAcquire hammers the controller and asserts the
// concurrency invariant (never more than MaxConcurrent running) and
// conservation (every request admitted or typed-shed).
func TestConcurrentAcquire(t *testing.T) {
	const maxC = 4
	c := NewController(Config{MaxConcurrent: maxC, QueueDepth: 64, MaxQueueWait: 50 * time.Millisecond})
	var running, peak, admitted, shed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", i%3)
			for j := 0; j < 50; j++ {
				rel, _, err := c.Acquire(tenant, 0)
				if err != nil {
					var ov *OverloadedError
					if !errors.As(err, &ov) {
						t.Errorf("untyped shed: %v", err)
						return
					}
					shed.Add(1)
					continue
				}
				n := running.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(50 * time.Microsecond)
				running.Add(-1)
				admitted.Add(1)
				rel()
			}
		}(i)
	}
	wg.Wait()
	if p := peak.Load(); p > maxC {
		t.Fatalf("concurrency invariant broken: peak %d > %d", p, maxC)
	}
	if admitted.Load()+shed.Load() != 32*50 {
		t.Fatalf("lost requests: admitted=%d shed=%d", admitted.Load(), shed.Load())
	}
	m := c.Metrics()
	if m["running"] != 0 || m["queued"] != 0 {
		t.Fatalf("controller not quiescent: %v", m)
	}
	st := c.Status()
	if len(st.Tenants) != 3 {
		t.Fatalf("tenant classes = %d, want 3", len(st.Tenants))
	}
}

func waitQueued(t *testing.T, c *Controller, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		q := c.queued
		c.mu.Unlock()
		if q >= n {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("queue never reached %d", n)
}

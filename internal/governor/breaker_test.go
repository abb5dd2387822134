package governor

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func openBreaker(t *testing.T, b *Breaker) {
	t.Helper()
	err := errors.New("boom")
	for i := 0; i < b.g.BreakThreshold; i++ {
		b.observe(err)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("breaker should be open, got %v", b.State())
	}
}

func TestBreakerHalfOpenAdmitsSingleProbe(t *testing.T) {
	b := testBreaker(3, 20*time.Millisecond)
	openBreaker(t, b)
	if allowed(b) {
		t.Fatal("open breaker must block")
	}
	time.Sleep(25 * time.Millisecond)
	// Exactly one caller wins the probe slot; the stampede is rejected.
	if !allowed(b) {
		t.Fatal("cool-down elapsed: first caller should be admitted as probe")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state: %v", b.State())
	}
	for i := 0; i < 10; i++ {
		if allowed(b) {
			t.Fatal("second caller admitted during in-flight probe (thundering herd)")
		}
	}
	// Probe succeeds: closed, traffic flows.
	b.observe(nil)
	if b.State() != BreakerClosed || !allowed(b) || !allowed(b) {
		t.Fatalf("breaker should close after probe success, state %v", b.State())
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	b := testBreaker(3, 20*time.Millisecond)
	openBreaker(t, b)
	time.Sleep(25 * time.Millisecond)
	if !allowed(b) {
		t.Fatal("probe should be admitted")
	}
	b.observe(errors.New("still down"))
	if b.State() != BreakerOpen {
		t.Fatalf("failed probe must re-open, got %v", b.State())
	}
	if allowed(b) {
		t.Fatal("re-opened breaker must block for a full cool-down")
	}
	opens, closes := b.transitions()
	if opens != 2 || closes != 0 {
		t.Fatalf("transitions: opens=%d closes=%d", opens, closes)
	}
}

func TestBreakerStuckProbeEscape(t *testing.T) {
	b := testBreaker(3, 20*time.Millisecond)
	openBreaker(t, b)
	time.Sleep(25 * time.Millisecond)
	if !allowed(b) {
		t.Fatal("probe should be admitted")
	}
	// The probe never reports (caller died). After another cool-down the
	// slot is reclaimed so the source is not blocked forever.
	if allowed(b) {
		t.Fatal("slot should stay claimed inside the window")
	}
	time.Sleep(25 * time.Millisecond)
	if !allowed(b) {
		t.Fatal("stuck probe slot should be reclaimable after the window")
	}
}

func TestBreakerAllowConcurrentSingleWinner(t *testing.T) {
	b := testBreaker(3, 10*time.Millisecond)
	openBreaker(t, b)
	time.Sleep(15 * time.Millisecond)
	var admitted int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if allowed(b) {
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

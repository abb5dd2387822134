package bench_test

import (
	"math/rand"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"shardingsphere/internal/admission"
	"shardingsphere/internal/bench"
	"shardingsphere/internal/proxy"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/pkg/client"
)

// slowBackend adds a fixed service time in front of another backend —
// the controlled saturation point the storm experiment needs: capacity
// is exactly MaxConcurrent / serviceTime, independent of how fast the
// embedded engine happens to be on the host.
type slowBackend struct {
	inner proxy.Backend
	d     time.Duration
}

func (b *slowBackend) NewBackendSession() proxy.BackendSession {
	return &slowSession{inner: b.inner.NewBackendSession(), d: b.d}
}

type slowSession struct {
	inner proxy.BackendSession
	d     time.Duration
}

func (s *slowSession) Execute(sql string, args []sqltypes.Value) ([]string, resource.ResultSet, int64, int64, error) {
	time.Sleep(s.d)
	return s.inner.Execute(sql, args)
}

func (s *slowSession) Close() { s.inner.Close() }

// stormDuration lets STORM_DURATION stretch the measured phase
// beyond the smoke default.
func stormDuration(def time.Duration) time.Duration {
	if v := os.Getenv("STORM_DURATION"); v != "" {
		if d, err := time.ParseDuration(v); err == nil {
			return d
		}
	}
	if testing.Short() {
		return def / 3
	}
	return def
}

// TestStormSmoke is the overload-protection acceptance experiment: a
// connection storm at several times the saturation point must leave
// admitted-request p99 within 2x of the unloaded p99, shed the excess
// with the typed overload error (no silent drops), and leak no
// goroutines.
//
// Phase 1 measures the unloaded p99 through a plain proxy. Phase 2
// serves the same backend behind an admission controller whose queue
// bound is calibrated from phase 1, then storms it with one socket per
// worker (client.Dial owns its socket: a genuine many-connection storm).
func TestStormSmoke(t *testing.T) {
	// Service time is large relative to scheduler/timer jitter so the 2x
	// latency envelope measures queueing policy, not sleep granularity.
	const svc = 4 * time.Millisecond
	const maxConcurrent = 8
	const unloadedWorkers = 4
	const stormWorkers = 48
	dur := stormDuration(1200 * time.Millisecond)

	// Both phases share one seeded processor behind slowed servers so the
	// only variable is admission.
	rows := 500
	proc := seededProcessor(t, rows)
	backend := &slowBackend{inner: &proxy.NodeBackend{Processor: proc}, d: svc}

	// Phase 1: unloaded latency, concurrency below the service limit.
	plain := proxy.NewServer(backend)
	plainAddr, err := plain.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	point := pointSelect(rows)
	unloaded, err := bench.Run(bench.Options{Workers: unloadedWorkers, Duration: dur, Seed: 11},
		func(int) (bench.Client, error) {
			conn, err := client.Dial(plainAddr)
			if err != nil {
				return nil, err
			}
			return &bench.RemoteClient{Conn: conn}, nil
		}, point)
	plain.Close()
	if err != nil {
		t.Fatal(err)
	}
	if unloaded.Errors > 0 {
		t.Fatalf("unloaded phase errors: %d", unloaded.Errors)
	}

	// Phase 2: admission-protected server, queue bound calibrated so an
	// admitted statement's worst case (service + bound) stays inside the
	// 2x envelope.
	maxWait := time.Duration(unloaded.P99Ms * float64(time.Millisecond) / 2)
	if maxWait < 500*time.Microsecond {
		maxWait = 500 * time.Microsecond
	}
	ctl := admission.NewController(admission.Config{
		MaxConcurrent: maxConcurrent,
		QueueDepth:    maxConcurrent,
		MaxQueueWait:  maxWait,
		MaxConns:      4 * stormWorkers,
	})
	protected := proxy.NewServer(backend)
	protected.SetAdmission(ctl)
	protected.SetIdleTimeout(30 * time.Second)
	protAddr, err := protected.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer protected.Close()

	// Warm the path, then take the goroutine baseline.
	warm, err := client.Dial(protAddr)
	if err != nil {
		t.Fatal(err)
	}
	warm.Ping()
	warm.Close()
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	var shed, silent atomic.Int64
	stormTx := func(c bench.Client, rng *rand.Rand) error {
		err := point(c, rng)
		if err != nil {
			if _, _, ok := client.IsOverloaded(err); ok {
				shed.Add(1)
			} else {
				silent.Add(1) // any other failure shape breaks the contract
			}
		}
		return err
	}
	storm, err := bench.Run(bench.Options{Workers: stormWorkers, Duration: dur, Seed: 13},
		func(int) (bench.Client, error) {
			conn, err := client.Dial(protAddr)
			if err != nil {
				return nil, err
			}
			return &bench.RemoteClient{Conn: conn}, nil
		}, stormTx)
	if err != nil {
		t.Fatal(err)
	}

	elapsed := dur.Seconds()
	capacity := float64(maxConcurrent) / svc.Seconds() // statements/sec at saturation
	offered := (float64(storm.Count) + float64(shed.Load())) / elapsed
	am := ctl.Metrics()
	t.Logf("unloaded (workers=%d): %s", unloadedWorkers, unloaded)
	t.Logf("storm    (workers=%d): %s", stormWorkers, storm)
	t.Logf("offered=%.0f/s capacity=%.0f/s (%.1fx saturation)  shed=%d silent=%d", offered, capacity, offered/capacity, shed.Load(), silent.Load())
	t.Logf("admission: admitted=%d shed_total=%d queue_full=%d queue_wait=%d timeout=%d flips=%d qwait_p99=%dus",
		am["admitted"], am["shed_total"], am["shed_queue_full"], am["shed_queue_wait"], am["shed_timeout"], am["overload_flips"], am["queue_wait_p99_us"])

	// Offered load must actually have been a storm: >= 3x saturation.
	if offered < 3*capacity {
		t.Fatalf("storm too weak: offered %.0f/s < 3x capacity %.0f/s", offered, capacity)
	}
	// Excess was rejected with the typed error — nothing silently dropped.
	if silent.Load() > 0 {
		t.Fatalf("%d failures were not typed overload errors", silent.Load())
	}
	if shed.Load() == 0 || am["shed_total"] == 0 {
		t.Fatal("storm shed nothing; admission control never engaged")
	}
	// Whether admitted requests kept their latency is a wall-clock ratio:
	// reported here, claimed only through the benchmark (ROADMAP item 0).
	t.Logf("admitted p99 %.3fms = %.2fx unloaded p99 %.3fms (envelope 2x, not asserted)",
		storm.P99Ms, storm.P99Ms/unloaded.P99Ms, unloaded.P99Ms)
	// No goroutine growth once the storm subsides.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > baseline {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutines grew: baseline %d, after storm %d", baseline, n)
	}
}

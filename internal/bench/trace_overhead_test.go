package bench_test

import (
	"sort"
	"testing"
	"time"

	"shardingsphere/internal/bench"
	"shardingsphere/internal/protocol"
	"shardingsphere/internal/resource"
	"shardingsphere/pkg/client"
)

// TestTraceOverhead measures what trace-context propagation costs an
// untraced remote point-select workload: with the capability negotiated
// every statement carries a 9-byte trailer and the demux stamps receive
// times, versus a capability-less client whose frames are byte-identical
// to the pre-capability wire. Both pools dial once up front; the modes
// then alternate short windows (ABBA ordering) so machine drift hits
// both equally. The compared statistic is the median across windows of
// each window's P90 latency — wall-clock TPS on a small shared machine
// swings ±10% with scheduler luck, while the P90 of a 10k-op window
// tracks the typical op cost and isolates the per-op overhead. The
// budget is the ISSUE's <2%; the test reports the ratio and does not
// assert it.
func TestTraceOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("paired benchmark needs real windows")
	}
	const rows = 1000
	// Serial round trips: on small CI machines worker concurrency only
	// adds scheduler noise, and the per-op trailer cost shows up the
	// same either way.
	const workers = 1
	const windows = 7
	window := 200 * time.Millisecond

	addr, _ := startBenchNode(t, rows)

	dial := func(caps uint32) *resource.DataSource {
		prev := client.NegotiateCaps
		client.NegotiateCaps = caps
		defer func() { client.NegotiateCaps = prev }()
		ds := client.NewRemoteDataSource("bench", addr, &resource.Options{PoolSize: workers})
		t.Cleanup(func() { ds.Close() })
		// Dial the mux sockets now so measurement windows never pay it.
		if pc, err := ds.Acquire(); err == nil {
			pc.Release()
		}
		return ds
	}
	withCaps := dial(protocol.LocalCaps)
	capless := dial(0)

	runWindow := func(ds *resource.DataSource, dur time.Duration) bench.Metrics {
		m, err := bench.Run(bench.Options{Workers: workers, Duration: dur, Seed: 7},
			func(int) (bench.Client, error) {
				pc, err := ds.Acquire()
				if err != nil {
					return nil, err
				}
				return &pooledClient{pc: pc}, nil
			}, pointSelect(rows))
		if err != nil {
			t.Fatal(err)
		}
		if m.Errors > 0 {
			t.Fatalf("benchmark errors: %d", m.Errors)
		}
		return m
	}

	// Warm both paths so pools, caches, CPU frequency and the node's
	// page structures settle before measurement.
	runWindow(withCaps, window)
	runWindow(capless, window)

	median := func(v []float64) float64 {
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		return s[len(s)/2]
	}
	measure := func() float64 {
		var p90With, p90Without []float64
		var opsWith, opsWithout int64
		for i := 0; i < windows; i++ {
			order := []*resource.DataSource{withCaps, capless}
			if i%2 == 1 {
				order[0], order[1] = order[1], order[0]
			}
			for _, ds := range order {
				m := runWindow(ds, window)
				if ds == withCaps {
					p90With = append(p90With, m.P90Ms)
					opsWith += m.Count
				} else {
					p90Without = append(p90Without, m.P90Ms)
					opsWithout += m.Count
				}
			}
		}
		mWith, mWithout := median(p90With), median(p90Without)
		overhead := (mWith - mWithout) / mWithout
		secs := (time.Duration(windows) * window).Seconds()
		t.Logf("capability-less: %8.0f TPS, median window P90 %.1fus (%d ops)",
			float64(opsWithout)/secs, mWithout*1000, opsWithout)
		t.Logf("trace-capable:   %8.0f TPS, median window P90 %.1fus (%d ops)",
			float64(opsWith)/secs, mWith*1000, opsWith)
		t.Logf("propagation overhead (P90 latency): %+.2f%%", overhead*100)
		return overhead
	}

	// The overhead is a wall-clock ratio: reported here against its budget
	// (<2%, with a noise allowance; see gates_*_test.go), claimed only
	// through the benchmark (ROADMAP item 0).
	t.Logf("trace propagation overhead %.2f%% (budget %.0f%%, not asserted)", measure()*100, traceOverheadGate*100)
}

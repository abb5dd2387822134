package bench_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"shardingsphere/internal/core"
	"shardingsphere/internal/distsql"
	"shardingsphere/internal/protocol"
	"shardingsphere/internal/proxy"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sqlexec"
	"shardingsphere/internal/storage"
	"shardingsphere/pkg/client"
)

// streamBench is a kernel sharding t_stream across two wire-v2 data
// nodes, with handles on node metrics and pool stats — the deployment
// the streaming scatter-gather numbers in EXPERIMENTS.md come from.
type streamBench struct {
	kernel  *core.Kernel
	nodes   []*proxy.Server
	sources map[string]*resource.DataSource
	total   int
	rowSize int // approximate encoded bytes per row
}

// startStreamBench seeds each node's actual table directly (multi-row
// inserts on the node processor, ids striped id%2 == shard to match the
// mod rule) so large row counts load in milliseconds, then installs the
// sharding rule on a kernel over both nodes.
func startStreamBench(t *testing.T, totalRows int) *streamBench {
	t.Helper()
	b := &streamBench{sources: map[string]*resource.DataSource{}, total: totalRows, rowSize: 270}
	pad := strings.Repeat("x", 256)
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("ds%d", i)
		proc := sqlexec.NewProcessor(storage.NewEngine(name))
		sess := proc.NewSession()
		if _, err := sess.Execute(fmt.Sprintf("CREATE TABLE t_stream_%d (id INT PRIMARY KEY, pad VARCHAR(300))", i)); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		n := 0
		for id := i; id < totalRows; id += 2 {
			if n == 0 {
				sb.Reset()
				fmt.Fprintf(&sb, "INSERT INTO t_stream_%d (id, pad) VALUES ", i)
			} else {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, '%s')", id, pad)
			n++
			if n == 100 || id+2 >= totalRows {
				if _, err := sess.Execute(sb.String()); err != nil {
					t.Fatal(err)
				}
				n = 0
			}
		}
		sess.Close()
		srv := proxy.NewServer(&proxy.NodeBackend{Processor: proc})
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		b.nodes = append(b.nodes, srv)
		b.sources[name] = client.NewRemoteDataSource(name, addr, &resource.Options{PoolSize: 8})
	}
	k, err := core.New(core.Config{Sources: b.sources, MaxCon: 4})
	if err != nil {
		t.Fatal(err)
	}
	distsql.Install(k, nil)
	b.kernel = k
	s := k.NewSession()
	defer s.Close()
	if _, err := s.Execute(`CREATE SHARDING TABLE RULE t_stream (
		RESOURCES(ds0, ds1), SHARDING_COLUMN = id, TYPE = mod,
		PROPERTIES("sharding-count" = 2))`); err != nil {
		t.Fatal(err)
	}
	// Placement sanity: the rule's actual tables must be the ones seeded.
	res, err := s.Execute("SELECT COUNT(*) FROM t_stream")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := resource.ReadAll(res.RS)
	if err != nil || len(rows) != 1 || int(rows[0][0].I) != totalRows {
		t.Fatalf("fixture count: rows=%v err=%v want %d", rows, err, totalRows)
	}
	return b
}

func (b *streamBench) nodeRowsStreamed() int64 {
	var sum int64
	for _, n := range b.nodes {
		sum += n.Metrics()["rows_streamed"]
	}
	return sum
}

func (b *streamBench) poolsIdle() bool {
	for _, ds := range b.sources {
		if ds.Stats().InUse != 0 {
			return false
		}
	}
	return true
}

// liveHeap forces a collection and reports the live heap — the working
// set a streaming consumer actually pins, independent of GC pacing.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapDelta is the live heap growth over base, floored at zero (GC may
// shrink the heap below the baseline between samples).
func heapDelta(base uint64) uint64 {
	if h := liveHeap(); h > base {
		return h - base
	}
	return 0
}

// TestStreamSmoke is the fast streaming acceptance drill wired into
// `make check`: a cross-shard ORDER BY through the pull pipeline yields
// rows in global order with bounded per-source batch windows, and an
// abandoned cursor stops the shard producers and releases every lease.
func TestStreamSmoke(t *testing.T) {
	const total = 4000
	b := startStreamBench(t, total)
	s := b.kernel.NewSession()
	defer s.Close()

	res, err := s.Execute("SELECT id, pad FROM t_stream ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for {
		row, rerr := res.RS.Next()
		if rerr != nil {
			break
		}
		if int(row[0].I) != next {
			t.Fatalf("row %d out of order: id=%d", next, row[0].I)
		}
		next++
	}
	res.Close()
	if next != total {
		t.Fatalf("streamed %d rows, want %d", next, total)
	}
	for name, ds := range b.sources {
		m := ds.AuxMetrics()
		if m["batch_window_peak"] < 1 || m["batch_window_peak"] > protocol.StreamWindow {
			t.Fatalf("%s batch_window_peak = %d, want within (0, %d]", name, m["batch_window_peak"], protocol.StreamWindow)
		}
	}

	// Early stop: abandon after a few rows; shard producers must halt
	// well short of the table and the leases must return to the pools.
	streamedBefore := b.nodeRowsStreamed()
	res, err = s.Execute("SELECT id, pad FROM t_stream ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := res.RS.Next(); err != nil {
			t.Fatal(err)
		}
	}
	res.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !b.poolsIdle() {
		time.Sleep(5 * time.Millisecond)
	}
	if !b.poolsIdle() {
		t.Fatal("pools did not drain after abandoned cursor")
	}
	if got := b.nodeRowsStreamed() - streamedBefore; got >= total/2 {
		t.Fatalf("abandoned cursor still pulled %d of %d rows (early stop broken)", got, total)
	}
}

// TestStreamMemoryAndTTFR is the streaming measurement behind EXPERIMENTS.md: the
// same cross-shard ORDER BY consumed two ways. Materializing pins the
// whole result; streaming holds a few flow-control windows per shard
// regardless of result size, and yields its first row long before the
// drain even finishes. Numbers feed EXPERIMENTS.md.
func TestStreamMemoryAndTTFR(t *testing.T) {
	const total = 60000 // ~16 MB encoded result, ≥10× the windowed working set
	b := startStreamBench(t, total)
	s := b.kernel.NewSession()
	defer s.Close()
	resultBytes := int64(b.total) * int64(b.rowSize)
	query := "SELECT id, pad FROM t_stream ORDER BY id"

	// Warm pools and plan cache so neither run pays first-use costs.
	if res, err := s.Execute(query); err != nil {
		t.Fatal(err)
	} else if rows, err := resource.ReadAll(res.RS); err != nil || len(rows) != total {
		t.Fatalf("warmup: %d rows, err %v", len(rows), err)
	}

	// Drain baseline: materialize the whole merged result.
	base := liveHeap()
	start := time.Now()
	res, err := s.Execute(query)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := resource.ReadAll(res.RS)
	if err != nil || len(rows) != total {
		t.Fatalf("drain: %d rows, err %v", len(rows), err)
	}
	drainPeak := heapDelta(base)
	drainTime := time.Since(start)
	runtime.KeepAlive(rows)
	rows = nil

	// Streaming: consume and discard, sampling the live heap mid-flight.
	base = liveHeap()
	start = time.Now()
	res, err = s.Execute(query)
	if err != nil {
		t.Fatal(err)
	}
	var ttfr time.Duration
	var streamPeak uint64
	count := 0
	for {
		row, rerr := res.RS.Next()
		if rerr != nil {
			break
		}
		if count == 0 {
			ttfr = time.Since(start)
		}
		count++
		if count%10000 == 0 {
			if h := heapDelta(base); h > streamPeak {
				streamPeak = h
			}
		}
		_ = row
	}
	res.Close()
	streamTime := time.Since(start)
	if count != total {
		t.Fatalf("stream: %d rows, want %d", count, total)
	}

	// Early stop: first rows of a fresh cursor, then abandon.
	streamedBefore := b.nodeRowsStreamed()
	start = time.Now()
	res, err = s.Execute(query)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := res.RS.Next(); err != nil {
			t.Fatal(err)
		}
	}
	earlyStop := time.Since(start)
	res.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !b.poolsIdle() {
		time.Sleep(5 * time.Millisecond)
	}
	earlyRows := b.nodeRowsStreamed() - streamedBefore

	t.Logf("result: %d rows ≈ %.1f MB encoded", total, float64(resultBytes)/1e6)
	t.Logf("drain:  peak live heap %.2f MB, total %.0f ms", float64(drainPeak)/1e6, drainTime.Seconds()*1e3)
	t.Logf("stream: peak live heap %.2f MB, total %.0f ms, TTFR %.1f ms (%.0f× earlier than drain completion)",
		float64(streamPeak)/1e6, streamTime.Seconds()*1e3, ttfr.Seconds()*1e3, drainTime.Seconds()/ttfr.Seconds())
	t.Logf("early stop: 10 rows in %.1f ms, shards shipped %d of %d rows", earlyStop.Seconds()*1e3, earlyRows, total)

	// The bounded-memory claim: streaming pins a fraction of what the
	// drain pins. Both runs share the in-process data nodes' working set
	// (a real deployment keeps that in other processes), so the client
	// side's contribution is the difference between the two peaks.
	if streamPeak*2 > drainPeak {
		t.Fatalf("streaming peak %.2f MB not ≪ drain peak %.2f MB", float64(streamPeak)/1e6, float64(drainPeak)/1e6)
	}
	// The early-visibility claim (first merged row well before a
	// drain-then-merge pipeline could have produced it) is a wall-clock
	// ratio: it is the TTFR figure logged above, not asserted here.
	if earlyRows >= total/2 {
		t.Fatalf("early stop still shipped %d of %d rows", earlyRows, total)
	}
}

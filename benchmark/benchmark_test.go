package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sync"
	"testing"
)

// streamHash generates n transactions per client and hashes every
// statement's text and arguments, committing each so writes advance the
// model as they do in a run.
func streamHash(wl *workload, seed int64, n int) uint64 {
	d := newDataset(seed, 2000)
	h := fnv.New64a()
	for w := 0; w < clients; w++ {
		g := newGen(d, wl, seed, w, clients)
		for i := 0; i < n; i++ {
			for _, o := range g.next() {
				fmt.Fprintf(h, "%s|", o.sql)
				for _, a := range o.args {
					fmt.Fprintf(h, "%s,", a.SQLLiteral())
				}
			}
			g.commit()
		}
	}
	return h.Sum64()
}

// The same seed must give byte-identical inputs: on this machine twice,
// and on every machine (the golden values), or runs are not comparable.
func TestStatementStreamIsDeterministic(t *testing.T) {
	golden := map[string]uint64{
		"point_select":    0xfc4618ea0e3d9f40,
		"cold_shapes":     0xfec4eb8d298a95aa,
		"range_read":      0x522a6b702694f39b,
		"write_txn":       0xfa61d2e0440b1980,
		"wire_read_write": 0x6be734dff07a5492,
	}
	for _, wl := range workloads {
		a, b := streamHash(wl, 42, 200), streamHash(wl, 42, 200)
		if a != b {
			t.Errorf("%s: two generations from one seed differ: %#x vs %#x", wl.name, a, b)
		}
		if a != golden[wl.name] {
			t.Errorf("%s: stream hash %#x, want %#x (the generator's output changed)", wl.name, a, golden[wl.name])
		}
		if c := streamHash(wl, 43, 200); c == a {
			t.Errorf("%s: seeds 42 and 43 give the same stream", wl.name)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 values = %v, want 3", got)
	}
	if got := median([]int64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 values = %v, want 2.5", got)
	}
	if got := median([]float64{}); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

// The histogram's percentile is the nearest-rank one, exact below 512 ns
// and within a bucket's 0.4% above.
func TestLatencyHistogram(t *testing.T) {
	var small, large, empty latHist
	for v := int64(1); v <= 500; v++ {
		small.add(v)
		large.add(v * 1000000)
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.50, 250}, {0.99, 495}, {1, 500}, {0.0001, 1}} {
		if got := small.percentile(c.p); math.Abs(got-c.want) > 0.5 {
			t.Errorf("percentile(1..500, %v) = %v, want %v", c.p, got, c.want)
		}
		if got := large.percentile(c.p); math.Abs(got/(c.want*1e6)-1) > 0.004 {
			t.Errorf("percentile(1e6..500e6, %v) = %v, want %v within 0.4%%", c.p, got, c.want*1e6)
		}
	}
	if got := empty.percentile(0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	small.merge(&large)
	if got := small.percentile(0.25); small.n != 1000 || math.Abs(got-250) > 0.5 {
		t.Errorf("after merge: n = %d, p25 = %v; want 1000 and 250", small.n, got)
	}
	for _, v := range []uint64{0, 1, 511, 512, 513, 1 << 20, 1<<38 - 1, 1 << 38, 1 << 62} {
		lo, width := histBounds(histBucket(v))
		if top := v >= 1<<38; !top && (float64(v) < lo || float64(v) >= lo+width) {
			t.Errorf("value %d is outside its bucket [%v, %v)", v, lo, lo+width)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},    // overlaps a: counted once
		{Name: "c", Parent: 0, Start: 90, End: 120},   // clipped to the parent
		{Name: "b1", Parent: 2, Start: 25, End: 35},   // grandchild: only b pays
		{Name: "other", Parent: -1, Start: 0, End: 7}, // second root
	}
	want := []int64{100 - 20 - 20 - 10, 20, 30 - 10, 30, 10, 7}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestQuartileSpreadAndVerdict(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got, ok := quartileSpread([]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6}); !ok || math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, %v; want 1", got, ok)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got, ok := quartileSpread([]float64{1, 2}); !ok || math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread(1, 2) = %v, %v; want 1", got, ok)
	}
	if _, ok := quartileSpread([]float64{1}); ok {
		t.Error("quartileSpread of one value claims to be known")
	}
	tps := metricDef{Name: "tps", Better: "higher", Bound: 0.10}
	p50 := metricDef{Name: "p50_ms", Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		m      metricDef
		a, b   float64
		spread float64
		known  bool
		want   string
	}{
		{tps, 100, 91, 0, false, "ok"},
		{tps, 100, 89, 0, false, "worse"},
		{tps, 100, 150, 0.02, true, "ok"},
		{p50, 1.0, 1.09, 0.02, true, "ok"},
		{p50, 1.0, 1.11, 0.02, true, "worse"},
		{p50, 1.0, 0.5, 0.02, true, "ok"},
		{p50, 1.0, 1.5, 0.12, true, "unresolved"},
	} {
		if got := verdict(c.m, c.a, c.b, c.spread, c.known); got != c.want {
			t.Errorf("verdict(%s, %v -> %v, spread %v) = %s, want %s", c.m.Name, c.a, c.b, c.spread, got, c.want)
		}
	}
}

func TestClassify(t *testing.T) {
	for msg, want := range map[string]string{
		"remote error: data source ds1 (2s): storage: lock wait timeout": "lock_wait_timeout",
		"remote error: Deadlock found when trying to get lock":           "deadlock",
		"core: statement timeout after 100ms: context deadline exceeded": "timeout",
		"storage: duplicate primary key":                                 "other",
	} {
		if got := classify(fmt.Errorf("%s", msg)); got != want {
			t.Errorf("classify(%q) = %s, want %s", msg, got, want)
		}
	}
}

// TestSmoke runs every workload for a fixed 200 transactions per client
// with all output checks on, then a short layer walk, and asserts the
// walk's exact counts. It asserts no time: tier-1 stays deterministic.
func TestSmoke(t *testing.T) {
	const seed, rows, txns, walkTxns = 7, 2000, 200, 40
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			d := newDataset(seed, rows)
			sys, err := buildSystem(wl, d)
			if err != nil {
				t.Fatal(err)
			}
			gens, conns, err := openClients(sys, d, wl, seed)
			if err != nil {
				sys.close()
				t.Fatal(err)
			}
			defer closeAll(sys, conns)
			var wg sync.WaitGroup
			for w := range conns {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					if _, err := replay(gens[w], txns, conns[w]); err != nil {
						t.Errorf("client %d: %v", w, err)
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if err := sys.finalCheck(d, gens); err != nil {
				t.Fatal(err)
			}
			layers, err := layerWalk(wl, sys, gens[0], seed, walkTxns, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.finalCheck(d, gens); err != nil {
				t.Fatalf("after the layer walk: %v", err)
			}
			exact := map[string]float64{"exec.retries": 0}
			switch wl.name {
			case "point_select":
				exact["sqlparser.parses_per_txn"], exact["plancache.hit_ratio"] = 0, 1
				exact["route.units_per_stmt"] = 1
			case "cold_shapes":
				exact["sqlparser.parses_per_txn"], exact["route.units_per_stmt"] = 1, 1
			case "range_read":
				exact["sqlparser.parses_per_txn"], exact["plancache.hit_ratio"] = 0, 1
				exact["route.units_per_range_stmt"] = 50
			case "write_txn":
				exact["sqlparser.parses_per_txn"], exact["route.units_per_stmt"] = 0, 1
			case "wire_read_write":
				exact["sqlparser.parses_per_txn"], exact["route.units_per_range_stmt"] = 0, 20
			}
			for name, want := range exact {
				if got, ok := layers[name]; !ok || got != want {
					t.Errorf("%s = %v (reported: %v), want %v", name, got, ok, want)
				}
			}
			inTxn := wl.name != "point_select" && wl.name != "cold_shapes"
			if _, ok := layers["transaction.commit_us"]; ok != inTxn {
				t.Errorf("transaction.commit_us reported: %v, want %v", ok, inTxn)
			}
			for _, name := range []string{"wire.front_us", "wire.back_us", "wire.bytes_per_txn", "wire.row_batches_per_txn"} {
				if _, ok := layers[name]; ok != wl.wire {
					t.Errorf("%s reported: %v, want %v", name, ok, wl.wire)
				}
			}
			for _, name := range []string{"core.residual_share", "storage.unit_us", "trace_overhead"} {
				if _, ok := layers[name]; !ok {
					t.Errorf("%s is not reported", name)
				}
			}
			for name := range layers {
				if !isPerLayer(name) {
					t.Errorf("layer walk reports %s, which BENCHMARK.json does not list", name)
				}
			}
		})
	}
}

func isPerLayer(name string) bool {
	for _, m := range perLayer {
		if m.Name == name {
			return true
		}
	}
	return false
}

// TestTimedRun drives the time-based loop and the driver's JSON line
// once, on a small table; it checks the line's shape, not its numbers.
func TestTimedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("takes the 2 s warm-up plus 1 s")
	}
	res, err := runWorkload(workloadByName("write_txn"), runOptions{seed: 3, seconds: 1, rows: 2000,
		timed: true, traced: true, walkTxns: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.FinalCheck != "ok" || len(res.SliceTPS) != slices || len(res.SetupS) != setups {
		t.Errorf("unexpected result: %+v", res)
	}
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(driverLine(res, true, true)), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted < 1 || len(line.Metrics) != len(endToEnd)+len(perLayer) {
		t.Errorf("driver line: %+v", line)
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if got, ok := line.Metrics[m.Name]; !ok || got.Value == nil || got.Unit != m.Unit {
			t.Errorf("driver line lacks %s in %s", m.Name, m.Unit)
		}
	}
}

// BENCHMARK.json is the contract later issues cite; it must say what the
// code measures.
func TestManifestMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Paths) != 1 || manifest.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", manifest.Paths)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the code", len(manifest.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if m := manifest.Workloads[i]; m.Name != wl.name || m.Why != wl.why || len(m.Why) > 200 {
			t.Errorf("workload %d: manifest has %q (%d chars of why), code has %q", i, m.Name, len(m.Why), wl.name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in the manifest, %d in the code", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: manifest %+v, code %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", manifest.EndToEnd, endToEnd)
	same("per_layer", manifest.PerLayer, perLayer)
}

package telemetry

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},         // <1µs
		{time.Microsecond, 1},              // [1,2)µs
		{3 * time.Microsecond, 2},          // [2,4)µs
		{100 * time.Microsecond, 7},        // [64,128)µs
		{time.Millisecond, 10},             // [512,1024)µs
		{time.Second, 20},                  // [524288,1048576)µs
		{time.Hour, NumBuckets - 1},        // clamped overflow
		{90 * time.Minute, NumBuckets - 1}, // clamped overflow
	}
	for _, c := range cases {
		h.Observe(c.d)
	}
	snap := h.Snapshot()
	want := map[int]uint64{0: 2, 1: 1, 2: 1, 7: 1, 10: 1, 20: 1, NumBuckets - 1: 2}
	for i, n := range snap {
		if n != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
	if got := h.Count(); got != 9 {
		t.Fatalf("Count = %d, want 9", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	// 90 fast observations (~100µs bucket), 10 slow (~2ms bucket).
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(2 * time.Millisecond)
	}
	if p50 := h.Quantile(0.50); p50 != 128*time.Microsecond {
		t.Errorf("p50 = %v, want 128µs (bucket upper bound)", p50)
	}
	if p99 := h.Quantile(0.99); p99 != 2048*time.Microsecond {
		t.Errorf("p99 = %v, want 2.048ms (bucket upper bound)", p99)
	}
	var empty Histogram
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
}

func TestTraceSpanOrdering(t *testing.T) {
	c := NewCollector()
	tr := c.StartInto(new(Trace), "SELECT 1", true)
	tr.Mark(StageParse)
	tr.Mark(StageRoute)
	tr.Mark(StageRewrite)
	execStart := time.Now()
	tr.AddExecAttempt("ds0", execStart, time.Microsecond, 0, nil)
	tr.AddExecAttempt("ds1", execStart, 2*time.Microsecond, 0, errors.New("boom"))
	tr.Mark(StageExecute)
	tr.Mark(StageMerge)
	tr.Finish(nil)

	spans := tr.Spans()
	wantStages := map[Stage]int{StageParse: 1, StageRoute: 1, StageRewrite: 1, StageExecute: 3, StageMerge: 1}
	got := map[Stage]int{}
	for _, s := range spans {
		got[s.Stage]++
	}
	for st, n := range wantStages {
		if got[st] != n {
			t.Errorf("stage %v: %d spans, want %d", st, got[st], n)
		}
	}
	// Spans are sorted by offset after Finish, and offsets are monotonic.
	for i := 1; i < len(spans); i++ {
		if spans[i].Offset < spans[i-1].Offset {
			t.Fatalf("span %d offset %v < previous %v", i, spans[i].Offset, spans[i-1].Offset)
		}
	}
	// First span is parse at offset 0.
	if spans[0].Stage != StageParse || spans[0].Offset != 0 {
		t.Errorf("first span = %+v, want parse at offset 0", spans[0])
	}
	// Per-source execute spans carry the data source and error.
	var sawErr bool
	for _, s := range spans {
		if s.Stage == StageExecute && s.DataSource == "ds1" {
			if s.Err == "" {
				t.Error("ds1 execute span missing error")
			}
			sawErr = true
		}
	}
	if !sawErr {
		t.Error("no ds1 execute span recorded")
	}
	if tr.Total() <= 0 {
		t.Error("trace total not positive")
	}
}

func TestTraceAddSpanAdvancesClock(t *testing.T) {
	c := NewCollector()
	tr := c.StartInto(new(Trace), "COMMIT", true)
	tr.Mark(StageParse)
	start := time.Now()
	tr.AddSpan(StageXAPrepare, "", start, 5*time.Millisecond)
	tr.Finish(nil)
	if tr.Total() < 5*time.Millisecond {
		t.Fatalf("total %v does not cover the 5ms xa_prepare span", tr.Total())
	}
}

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	tr.Mark(StageParse)
	tr.AddExecAttempt("ds0", time.Now(), 0, 0, nil)
	tr.Skip()
	tr.Finish(nil)
	if tr.Detailed() {
		t.Fatal("nil trace cannot be detailed")
	}
}

func TestCollectorSlowLog(t *testing.T) {
	c := NewCollector()
	c.SetStageSampling(1) // every trace records stage marks
	c.SetSlowThreshold(0) // capture everything
	var buf Trace
	for i := 0; i < 3; i++ {
		tr := c.StartInto(&buf, "SELECT slow", false)
		tr.Mark(StageParse)
		tr.Finish(nil)
	}
	entries := c.Slow()
	if len(entries) != 3 {
		t.Fatalf("slow log has %d entries, want 3", len(entries))
	}
	if entries[0].SQL != "SELECT slow" || len(entries[0].Spans) == 0 {
		t.Fatalf("slow entry malformed: %+v", entries[0])
	}
	// Ring wraps at capacity without losing the cumulative count.
	for i := 0; i < 100; i++ {
		tr := c.StartInto(&buf, "SELECT more", false)
		tr.Finish(nil)
	}
	if got := len(c.Slow()); got != 64 {
		t.Fatalf("ring holds %d entries, want capacity 64", got)
	}
	if c.slow.total() != 103 {
		t.Fatalf("cumulative slow count = %d, want 103", c.slow.total())
	}
}

func TestCollectorMetrics(t *testing.T) {
	c := NewCollector()
	tr := c.StartInto(new(Trace), "SELECT 1", false)
	tr.Mark(StageParse)
	tr.Mark(StageRoute)
	tr.Finish(errors.New("boom"))
	ds0 := c.Source("ds0") // a success and a failure, as the executor reports them
	ds0.Execute.Observe(time.Millisecond)
	ds0.Execute.Observe(time.Millisecond)
	ds0.Errors.Add(1)
	c.ObserveAcquire("ds0", 10*time.Microsecond, true)

	snap := c.MetricsSnapshot()
	m, hist := map[string]int64{}, map[string]uint64{}
	for _, ctr := range snap.Counters {
		m[ctr.Name] = ctr.Value
	}
	for _, h := range snap.Histograms {
		hist[h.Name] = h.Count()
	}
	if m["statements"] != 1 {
		t.Errorf("statements = %d, want 1", m["statements"])
	}
	if m["errors"] != 1 {
		t.Errorf("errors = %d, want 1", m["errors"])
	}
	if hist["stage.parse"] != 1 || hist["stage.route"] != 1 {
		t.Errorf("missing stage histograms: %v", hist)
	}
	if hist["source.ds0.execute"] != 2 || m["source.ds0.errors"] != 1 || m["source.ds0.acquire_timeouts"] != 1 {
		t.Errorf("source counters wrong: %v %v", m, hist)
	}
	if hist["source.ds0.acquire"] != 1 {
		t.Errorf("acquire histogram: %v", hist)
	}
}

func TestTraceConcurrentAddExec(t *testing.T) {
	c := NewCollector()
	tr := c.StartInto(new(Trace), "SELECT fanout", true)
	tr.Mark(StageRoute)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr.AddExecAttempt("ds0", time.Now(), time.Duration(i)*time.Microsecond, 0, nil)
		}(i)
	}
	wg.Wait()
	tr.Mark(StageExecute)
	tr.Finish(nil)
	n := 0
	for _, s := range tr.Spans() {
		if s.Stage == StageExecute && s.DataSource != "" {
			n++
		}
	}
	if n != 8 {
		t.Fatalf("recorded %d exec spans, want 8", n)
	}
}

package digest

import (
	"fmt"
	"testing"
	"time"

	"shardingsphere/internal/resource"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/telemetry"
)

func TestEntryObserveAndSnapshot(t *testing.T) {
	e := &Entry{Key: "SELECT c FROM t WHERE id = ?", ID: telemetry.DigestID("SELECT c FROM t WHERE id = ?")}
	e.Observe(2*time.Millisecond, 1, 0, false)
	e.Observe(4*time.Millisecond, 3, 1, true)
	e.AddRows(10, 100)

	s := e.Snapshot()
	if s.Key != e.Key || s.ID != e.ID {
		t.Fatalf("identity: %+v", s)
	}
	if s.Calls != 2 || s.Errors != 1 || s.Retries != 1 || s.Rows != 10 || s.Bytes != 100 {
		t.Fatalf("counts: %+v", s)
	}
	if s.Total != 6*time.Millisecond {
		t.Fatalf("total: %v", s.Total)
	}
	if s.SingleShard != 1 || s.CrossShard != 1 || s.ShardsSum != 4 || s.ShardsMax != 3 {
		t.Fatalf("shard split: %+v", s)
	}
	if calls, errs, rows := e.Totals(); calls != 2 || errs != 1 || rows != 10 {
		t.Fatalf("totals: %d %d %d", calls, errs, rows)
	}
}

// TestEntryFold: folding shapes into an accumulator sums every counter,
// merges the latency histograms bucket-wise and keeps the widest fan-out.
func TestEntryFold(t *testing.T) {
	var a, b, acc Entry
	a.Observe(2*time.Millisecond, 1, 0, false)
	a.AddRows(3, 30)
	b.Observe(40*time.Millisecond, 5, 2, true)
	b.Observe(40*time.Millisecond, 2, 0, false)
	b.AddRows(7, 70)
	acc.Fold(&a)
	acc.Fold(&b)
	s := acc.Snapshot()
	if s.Calls != 3 || s.Errors != 1 || s.Retries != 2 || s.Rows != 10 || s.Bytes != 100 {
		t.Fatalf("counts: %+v", s)
	}
	if s.Total != 82*time.Millisecond || s.SingleShard != 1 || s.CrossShard != 2 || s.ShardsSum != 8 || s.ShardsMax != 5 {
		t.Fatalf("sums: %+v", s)
	}
	want, more := a.lat.Snapshot(), b.lat.Snapshot()
	for i := range want {
		want[i] += more[i]
	}
	if got := acc.lat.Snapshot(); got != want {
		t.Fatalf("histogram: %v want %v", got, want)
	}
}

func TestHeatDecayedRateRanksRecentTraffic(t *testing.T) {
	h := NewHeat()
	base := time.Unix(1_000_000, 0)
	cold := h.Cell("t", "ds0", "t_0")
	hot := h.Cell("t", "ds1", "t_1")
	// The cold shard was busy a while ago; the hot shard is busy now.
	for i := 0; i < 100; i++ {
		cold.ObserveQuery(base, 0, nil)
	}
	for i := 0; i < 100; i++ {
		hot.ObserveQuery(base.Add(90*time.Second), 0, nil)
	}
	now := base.Add(91 * time.Second)
	if cr, hr := cold.RateAt(now), hot.RateAt(now); hr <= cr {
		t.Fatalf("decayed rate should rank recent traffic first: cold=%f hot=%f", cr, hr)
	}
	snaps := h.Snapshot(now)
	if len(snaps) != 2 {
		t.Fatalf("snapshot: %v", snaps)
	}
	for _, s := range snaps {
		if s.Queries != 100 {
			t.Fatalf("queries: %+v", s)
		}
	}
}

func TestHeatRateFoldsAcrossWindows(t *testing.T) {
	h := NewHeat()
	c := h.Cell("t", "ds0", "t_0")
	base := time.Unix(2_000_000, 0)
	// 10 events per second for 5 seconds → rate approaches 10/s.
	for s := 0; s < 5; s++ {
		for i := 0; i < 10; i++ {
			c.ObserveQuery(base.Add(time.Duration(s)*time.Second), 0, nil)
		}
	}
	r := c.RateAt(base.Add(5 * time.Second))
	if r < 1 || r > 20 {
		t.Fatalf("steady 10/s load reported rate %f", r)
	}
	// A minute of silence decays it well below the live estimate.
	later := c.RateAt(base.Add(120 * time.Second))
	if later >= r/2 {
		t.Fatalf("rate did not decay: %f -> %f", r, later)
	}
}

func TestHeatCapacityBound(t *testing.T) {
	h := NewHeat()
	for i := 0; i < maxCells+100; i++ {
		h.Cell("t", "ds", fmt.Sprintf("t_%d", i))
	}
	_, _, _, _, _, _, cells := h.Totals()
	if cells > maxCells {
		t.Fatalf("heat map grew past its bound: %d cells", cells)
	}
	if c := h.Cell("t", "ds", "one-more"); c != nil {
		t.Fatal("cell allocated past capacity")
	}
}

func TestTopKSpaceSavingBound(t *testing.T) {
	tk := NewTopK(4)
	// One genuinely hot key among churn.
	for i := 0; i < 100; i++ {
		tk.Note("t", "id", "hot")
	}
	for i := 0; i < 50; i++ {
		tk.Note("t", "id", fmt.Sprintf("cold-%d", i))
	}
	top := tk.Top(1)
	if len(top) != 1 || top[0].Value != "hot" {
		t.Fatalf("hot key not ranked first: %v", top)
	}
	// Space-saving invariant: true count ≥ Count - MaxError.
	if top[0].Count-top[0].MaxError > 100 {
		t.Fatalf("error bound violated: %+v", top[0])
	}
	if got := tk.Top(0); len(got) != 4 {
		t.Fatalf("sketch width: %v", got)
	}
	tk.Reset()
	if len(tk.Top(0)) != 0 {
		t.Fatal("reset did not clear the sketch")
	}
}

func TestWrapRowsChargesSink(t *testing.T) {
	rows := []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewString("abc")},
		{sqltypes.NewInt(2), sqltypes.NewString("defg")},
	}
	e := &Entry{}
	rs := WrapRows(resource.NewSliceResultSet([]string{"id", "c"}, rows), e)
	if _, err := resource.ReadAll(rs); err != nil {
		t.Fatal(err)
	}
	if got := e.rows.Load(); got != 2 {
		t.Fatalf("rows: %d", got)
	}
	want := RowBytes(rows[0]) + RowBytes(rows[1])
	if got := e.bytes.Load(); got != want {
		t.Fatalf("bytes: %d want %d", got, want)
	}
	// Typed-nil sinks pass through unwrapped.
	var nilEntry *Entry
	inner := resource.NewSliceResultSet([]string{"id"}, nil)
	if got := WrapRows(inner, nilEntry); got != resource.ResultSet(inner) {
		t.Fatal("typed-nil sink should not wrap")
	}
}

func TestWorkloadMetricsAndReset(t *testing.T) {
	w := NewWorkload()
	w.Heat.Cell("t", "ds0", "t_0").ObserveQuery(time.Unix(3_000_000, 0), 0, nil)
	w.SetHotKeyTracking(true)
	w.HotKeys().Note("t", "id", "7")
	if m := w.HeatMetrics(); m["queries"] != 1 || m["cells"] != 1 {
		t.Fatalf("heat metrics: %v", m)
	}

	w.Reset()
	if m := w.HeatMetrics(); m["queries"] != 0 || m["cells"] != 0 {
		t.Fatalf("heat survived Reset: %v", m)
	}
	if len(w.HotKeys().Top(0)) != 0 {
		t.Fatal("hot keys survived Reset")
	}
	w.SetHotKeyTracking(false)
	if w.HotKeys() != nil {
		t.Fatal("tracking off should drop the sketch")
	}
}

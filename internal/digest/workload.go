package digest

import (
	"sync/atomic"
	"time"

	"shardingsphere/internal/resource"
	"shardingsphere/internal/sqltypes"
)

// Workload bundles the workload-observability structures the kernel owns
// beside the plan cache (which holds the statement digests): the shard
// heat map and the opt-in hot-key sketch.
type Workload struct {
	Heat *Heat
	// hotKeys is nil while hot-key tracking is off, so the disabled
	// cost at the router is a single atomic pointer load.
	hotKeys atomic.Pointer[TopK]
}

// NewWorkload builds the bundle. Hot-key tracking starts off.
func NewWorkload() *Workload {
	return &Workload{Heat: NewHeat()}
}

// SetHotKeyTracking switches the hot-key sketch on or off. Turning it
// off discards the sketch; turning it on starts fresh.
func (w *Workload) SetHotKeyTracking(on bool) {
	if w == nil {
		return
	}
	if on {
		w.hotKeys.Store(NewTopK(0))
	} else {
		w.hotKeys.Store(nil)
	}
}

// HotKeys returns the live sketch, or nil while tracking is off.
func (w *Workload) HotKeys() *TopK {
	if w == nil {
		return nil
	}
	return w.hotKeys.Load()
}

// Reset clears the heat map and the hot-key sketch (RESET DIGESTS).
func (w *Workload) Reset() {
	if w == nil {
		return
	}
	w.Heat.Reset()
	if t := w.hotKeys.Load(); t != nil {
		t.Reset()
	}
}

// HeatMetrics is the governor metrics source for the heat.* family.
func (w *Workload) HeatMetrics() map[string]int64 {
	queries, execs, rowsRead, rowsWritten, bytes, errs, cells := w.Heat.Totals()
	return map[string]int64{
		"queries":      queries,
		"execs":        execs,
		"rows_read":    rowsRead,
		"rows_written": rowsWritten,
		"bytes":        bytes,
		"errors":       errs,
		"cells":        cells,
	}
}

// RowSink receives streamed row counts; both digest entries and heat
// cells implement it. The interface lives in resource so ConnLease can
// charge sinks without importing this package.
type RowSink = resource.RowSink

// AddStreamedRows implements RowSink for a digest entry.
func (e *Entry) AddStreamedRows(rows int, bytes int64) { e.addRows(rows, bytes) }

// AddStreamedRows implements RowSink for a heat cell.
func (c *Cell) AddStreamedRows(rows int, bytes int64) { c.AddRead(rows, bytes) }

// WrapRows wraps a result cursor so rows (and approximate bytes)
// flowing through it are charged to sink. Typed nil sinks and nil
// cursors pass through untouched.
func WrapRows(rs resource.ResultSet, sink RowSink) resource.ResultSet {
	if rs == nil || sink == nil {
		return rs
	}
	switch s := sink.(type) {
	case *Entry:
		if s == nil {
			return rs
		}
	case *Cell:
		if s == nil {
			return rs
		}
	}
	return &countingRS{inner: rs, sink: sink}
}

type countingRS struct {
	inner resource.ResultSet
	sink  RowSink
}

func (c *countingRS) Columns() []string { return c.inner.Columns() }

func (c *countingRS) Remaining() (int, bool) { return resource.Remaining(c.inner) }

func (c *countingRS) Next() (sqltypes.Row, error) {
	row, err := c.inner.Next()
	if err == nil {
		c.sink.AddStreamedRows(1, RowBytes(row))
	}
	return row, err
}

func (c *countingRS) NextBatch(buf []sqltypes.Row) (int, error) {
	n, err := c.inner.NextBatch(buf)
	if n > 0 {
		var b int64
		for i := 0; i < n; i++ {
			b += RowBytes(buf[i])
		}
		c.sink.AddStreamedRows(n, b)
	}
	return n, err
}

func (c *countingRS) Close() error { return c.inner.Close() }

// RowBytes approximates a row's wire size; the implementation lives in
// resource next to the lease that charges it.
func RowBytes(row sqltypes.Row) int64 { return resource.RowBytes(row) }

// Now is the clock the surfaces evaluate decayed rates against;
// indirected for tests.
var Now = time.Now

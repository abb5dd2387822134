package digest

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"shardingsphere/internal/telemetry"
)

// rateTau is the EWMA time constant: a shard that stops receiving
// traffic loses ~63% of its decayed rate every 30s, so SHOW SHARD HEAT
// ranks *currently* hot shards rather than lifetime totals.
const rateTau = 30.0

// maxCells bounds the heat map. Cardinality is naturally bounded by the
// topology (logic tables × shards), so the cap is a safety net against
// pathological rule churn, not an LRU: beyond it new cells are dropped
// and counted.
const maxCells = 4096

// Cell aggregates one (logic table, shard) pair, where a shard is the
// (data source, actual table) the router resolved to. Updates are plain
// atomics; the latency histogram is fed only for stage-sampled
// statements (the executor deliberately skips the clock for unsampled
// ones) and is labelled a sampled statistic in the surfaces.
type Cell struct {
	LogicTable  string
	DataSource  string
	ActualTable string
	// epoch is the heat map's reset epoch the cell was created under; a
	// holder of a cached cell pointer compares it to Heat.Epoch.
	epoch uint64

	queries     atomic.Int64
	execs       atomic.Int64
	rowsRead    atomic.Int64
	rowsWritten atomic.Int64
	bytes       atomic.Int64
	errors      atomic.Int64
	lat         telemetry.Histogram

	// EWMA state: winStart is the unix second of the open 1s counting
	// window, winCount the statements observed in it, rate the decayed
	// per-second rate (Float64bits). Rollover is CAS-elected so exactly
	// one observer folds the closed window in; the losers just count
	// into the new window. No extra clock read — callers pass the start
	// timestamp the executor already took.
	winStart atomic.Int64
	winCount atomic.Int64
	rate     atomic.Uint64
}

func (c *Cell) tick(start time.Time) {
	s := start.Unix()
	w := c.winStart.Load()
	if s == w {
		c.winCount.Add(1)
		return
	}
	if s < w || !c.winStart.CompareAndSwap(w, s) {
		// Raced with another roller (or a late sample from the prior
		// window): count into whatever window is open.
		c.winCount.Add(1)
		return
	}
	n := c.winCount.Swap(1) // the swap seeds the new window with this event
	if w == 0 {
		return // first event ever: nothing to fold yet
	}
	dt := float64(s - w)
	decay := math.Exp(-dt / rateTau)
	old := math.Float64frombits(c.rate.Load())
	c.rate.Store(math.Float64bits(old*decay + (float64(n)/dt)*(1-decay)))
}

// Epoch returns the heat map epoch the cell belongs to.
func (c *Cell) Epoch() uint64 { return c.epoch }

// ObserveQuery records one routed read against the cell. dur is zero
// for unsampled statements and then skips the histogram.
func (c *Cell) ObserveQuery(start time.Time, dur time.Duration, err error) {
	if c == nil {
		return
	}
	c.queries.Add(1)
	if err != nil {
		c.errors.Add(1)
	}
	if dur > 0 {
		c.lat.Observe(dur)
	}
	c.tick(start)
}

// ObserveExec records one routed write plus its affected-row count.
func (c *Cell) ObserveExec(start time.Time, dur time.Duration, affected int64, err error) {
	if c == nil {
		return
	}
	c.execs.Add(1)
	if err != nil {
		c.errors.Add(1)
	}
	if affected > 0 {
		c.rowsWritten.Add(affected)
	}
	if dur > 0 {
		c.lat.Observe(dur)
	}
	c.tick(start)
}

// AddRead charges streamed result rows (and approximate bytes) to the
// cell; WrapRows calls it as batches flow to the merger.
func (c *Cell) AddRead(rows int, bytes int64) {
	if c == nil || rows == 0 {
		return
	}
	c.rowsRead.Add(int64(rows))
	if bytes > 0 {
		c.bytes.Add(bytes)
	}
}

// RateAt reports the decayed per-second statement rate as of now: the
// folded EWMA decayed to now plus the still-open window's count (so a
// shard that just went hot ranks immediately).
func (c *Cell) RateAt(now time.Time) float64 {
	w := c.winStart.Load()
	if w == 0 {
		return 0
	}
	dt := float64(now.Unix() - w)
	if dt < 0 {
		dt = 0
	}
	r := math.Float64frombits(c.rate.Load()) * math.Exp(-dt/rateTau)
	if dt < rateTau {
		r += float64(c.winCount.Load()) * (1 - dt/rateTau) // open window, linearly faded
	}
	return r
}

// CellSnapshot is one heat cell copied out for rendering.
type CellSnapshot struct {
	LogicTable, DataSource, ActualTable string
	Queries, Execs                      int64
	RowsRead, RowsWritten               int64
	Bytes, Errors                       int64
	Rate                                float64
	P50, P99                            time.Duration
}

// cellKey identifies one (logic table, shard) pair. A comparable struct
// rather than a concatenated string: the hot path builds it on the stack,
// so resolving a cell allocates nothing.
type cellKey struct {
	logic, ds, actual string
}

// stripeCount shards the heat map's lock; must be a power of two.
const stripeCount = 16

type heatStripe struct {
	mu sync.RWMutex
	m  map[cellKey]*Cell
}

// Heat is the lock-striped (table, shard) heat map.
type Heat struct {
	stripes [stripeCount]heatStripe
	cells   atomic.Int64
	dropped atomic.Int64
	// epoch bumps on Reset so executors holding cached cell pointers
	// re-resolve instead of charging cells the map no longer reports.
	epoch atomic.Uint64
}

// Epoch returns the reset epoch; cached cell pointers compare it to
// decide whether to re-resolve.
func (h *Heat) Epoch() uint64 {
	if h == nil {
		return 0
	}
	return h.epoch.Load()
}

// NewHeat builds an empty heat map.
func NewHeat() *Heat {
	h := &Heat{}
	for i := range h.stripes {
		h.stripes[i].m = map[cellKey]*Cell{}
	}
	return h
}

// Cell resolves (and lazily creates) the cell for one routed unit. Hot
// path: one key build and one read-locked probe. Returns nil when the
// map is at capacity and the pair is new.
func (h *Heat) Cell(logic, ds, actual string) *Cell {
	if h == nil {
		return nil
	}
	key := cellKey{logic: logic, ds: ds, actual: actual}
	st := &h.stripes[fnv64(actual)&(stripeCount-1)]
	st.mu.RLock()
	c := st.m[key]
	st.mu.RUnlock()
	if c != nil {
		return c
	}
	if h.cells.Load() >= maxCells {
		h.dropped.Add(1)
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if c = st.m[key]; c != nil {
		return c
	}
	c = &Cell{LogicTable: logic, DataSource: ds, ActualTable: actual, epoch: h.epoch.Load()}
	st.m[key] = c
	h.cells.Add(1)
	return c
}

// Reset drops every cell (RESET DIGESTS clears the whole workload plane).
// Every stripe is held across the epoch bump, so no cell is created under
// the new epoch and then dropped with the old map.
func (h *Heat) Reset() {
	if h == nil {
		return
	}
	for i := range h.stripes {
		h.stripes[i].mu.Lock()
	}
	h.epoch.Add(1)
	for i := range h.stripes {
		h.stripes[i].m = map[cellKey]*Cell{}
	}
	h.cells.Store(0)
	for i := range h.stripes {
		h.stripes[i].mu.Unlock()
	}
}

// Snapshot copies every cell out, with rates evaluated at now.
func (h *Heat) Snapshot(now time.Time) []CellSnapshot {
	if h == nil {
		return nil
	}
	var out []CellSnapshot
	for i := range h.stripes {
		st := &h.stripes[i]
		st.mu.RLock()
		for _, c := range st.m {
			out = append(out, CellSnapshot{
				LogicTable:  c.LogicTable,
				DataSource:  c.DataSource,
				ActualTable: c.ActualTable,
				Queries:     c.queries.Load(),
				Execs:       c.execs.Load(),
				RowsRead:    c.rowsRead.Load(),
				RowsWritten: c.rowsWritten.Load(),
				Bytes:       c.bytes.Load(),
				Errors:      c.errors.Load(),
				Rate:        c.RateAt(now),
				P50:         c.lat.Quantile(0.50),
				P99:         c.lat.Quantile(0.99),
			})
		}
		st.mu.RUnlock()
	}
	return out
}

// Totals sums the map's aggregate counters for the heat.* metric family.
func (h *Heat) Totals() (queries, execs, rowsRead, rowsWritten, bytes, errors, cells int64) {
	if h == nil {
		return
	}
	for i := range h.stripes {
		st := &h.stripes[i]
		st.mu.RLock()
		for _, c := range st.m {
			queries += c.queries.Load()
			execs += c.execs.Load()
			rowsRead += c.rowsRead.Load()
			rowsWritten += c.rowsWritten.Load()
			bytes += c.bytes.Load()
			errors += c.errors.Load()
		}
		st.mu.RUnlock()
	}
	return queries, execs, rowsRead, rowsWritten, bytes, errors, h.cells.Load()
}

func fnv64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

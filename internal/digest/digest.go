// Package digest is the workload-observability plane (pg_stat_statements
// for the sharding kernel): the per-shape statement counters that hang
// off the plan cache's entries, a per-(table, shard) heat map with
// exponentially-decayed rates, and an opt-in hot-key top-k sketch over
// routed sharding-key values. Telemetry (PR 2/5) answers "how slow was
// this statement"; this package answers "which statement shapes, tables,
// shards and key values carry the load" — the input signal the roadmap's
// online-resharding item needs.
//
// Everything here is built for an always-on hot path: the statement that
// looked its shape up in the plan cache already holds the counters, and
// feeds them with plain atomic adds.
package digest

import (
	"sync/atomic"
	"time"

	"shardingsphere/internal/telemetry"
)

// Entry aggregates one statement shape; it lives inside the shape's
// plan-cache entry, which sets Key and ID. The counters are atomics: a
// statement updates them without any lock.
type Entry struct {
	// Key is the normalized statement shape (literals replaced by "?"):
	// the plan cache's key.
	Key string
	// ID is the shape's stable digest id (fnv-1a/64 of Key, hex).
	ID string

	calls   atomic.Int64
	errors  atomic.Int64
	retries atomic.Int64
	// rows counts rows returned to the client (queries, counted as the
	// merged result streams) plus rows affected (DML).
	rows  atomic.Int64
	bytes atomic.Int64
	// totalNs accumulates statement wall time so SHOW STATEMENT DIGESTS
	// can rank by total_time without walking histogram buckets.
	totalNs atomic.Int64
	lat     telemetry.Histogram

	// Shards-touched distribution. Only cross-shard statements pay the
	// extra atomics: the single-shard count is calls - crossShard, a
	// single shard contributes exactly 1 to the sum, and the single-shard
	// max is 1 — all derivable at snapshot time, so the dominant case
	// (routed point queries) skips three counters.
	crossShard     atomic.Int64
	crossShardsSum atomic.Int64
	crossShardsMax atomic.Int64
}

// Observe records one finished statement against the shape.
func (e *Entry) Observe(total time.Duration, shards, retries int, failed bool) {
	if e == nil {
		return
	}
	e.calls.Add(1)
	if failed {
		e.errors.Add(1)
	}
	if retries > 0 {
		e.retries.Add(int64(retries))
	}
	e.totalNs.Add(int64(total))
	e.lat.Observe(total)
	if shards <= 1 {
		return
	}
	e.crossShard.Add(1)
	e.crossShardsSum.Add(int64(shards))
	e.raiseShardsMax(int64(shards))
}

func (e *Entry) raiseShardsMax(n int64) {
	for {
		m := e.crossShardsMax.Load()
		if n <= m || e.crossShardsMax.CompareAndSwap(m, n) {
			return
		}
	}
}

// AddRows charges rows (and their approximate bytes) to the shape; the
// kernel calls it directly for DML affected counts and through WrapRows
// for streamed query results.
func (e *Entry) AddRows(n, bytes int64) {
	if e == nil || n == 0 {
		return
	}
	e.rows.Add(n)
	if bytes > 0 {
		e.bytes.Add(bytes)
	}
}

func (e *Entry) addRows(n int, bytes int64) { e.AddRows(int64(n), bytes) }

// EntrySnapshot is one shape's state copied out for rendering.
type EntrySnapshot struct {
	Key, ID                 string
	Calls, Errors, Retries  int64
	Rows, Bytes             int64
	Total                   time.Duration
	P50, P99                time.Duration
	SingleShard, CrossShard int64
	ShardsSum, ShardsMax    int64
}

// Snapshot copies the shape's state out.
func (e *Entry) Snapshot() EntrySnapshot {
	calls := e.calls.Load()
	cross := e.crossShard.Load()
	single := calls - cross
	if single < 0 { // snapshot raced an in-flight Observe
		single = 0
	}
	maxShards := e.crossShardsMax.Load()
	if maxShards == 0 && calls > 0 {
		maxShards = 1
	}
	return EntrySnapshot{
		Key: e.Key, ID: e.ID,
		Calls:       calls,
		Errors:      e.errors.Load(),
		Retries:     e.retries.Load(),
		Rows:        e.rows.Load(),
		Bytes:       e.bytes.Load(),
		Total:       time.Duration(e.totalNs.Load()),
		P50:         e.lat.Quantile(0.50),
		P99:         e.lat.Quantile(0.99),
		SingleShard: single,
		CrossShard:  cross,
		ShardsSum:   single + e.crossShardsSum.Load(),
		ShardsMax:   maxShards,
	}
}

// Totals returns the counters the digest.* metrics family sums.
func (e *Entry) Totals() (calls, errors, rows int64) {
	return e.calls.Load(), e.errors.Load(), e.rows.Load()
}

// Fold adds a shape's counters, and its latency histogram bucket-wise,
// into e. The plan cache folds every shape it evicts into one
// accumulator, so the plane's totals never run backwards.
func (e *Entry) Fold(from *Entry) {
	e.calls.Add(from.calls.Load())
	e.errors.Add(from.errors.Load())
	e.retries.Add(from.retries.Load())
	e.rows.Add(from.rows.Load())
	e.bytes.Add(from.bytes.Load())
	e.totalNs.Add(from.totalNs.Load())
	buckets := from.lat.Snapshot()
	e.lat.Merge(buckets[:])
	e.crossShard.Add(from.crossShard.Load())
	e.crossShardsSum.Add(from.crossShardsSum.Load())
	e.raiseShardsMax(from.crossShardsMax.Load())
}

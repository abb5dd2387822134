// Node-side observability: per-statement span recording armed by the
// serving layer (internal/proxy) when a wire-v2 statement carries an
// active trace context, plus always-on node aggregates answered over
// FrameMetricsPull.
package sqlexec

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shardingsphere/internal/telemetry"
)

// maxTableStats bounds the per-table counter map so a workload creating
// tables in a loop cannot grow the node snapshot without bound.
const maxTableStats = 256

// tableStat is one actual table's always-on counters on the node: the
// node-side half of the proxy's shard heat map, federated per node over
// FrameMetricsPull.
type tableStat struct {
	reads, writes, errors atomic.Int64
}

// Stats aggregates node-local execution metrics. Statement and error
// counters are always on (one atomic add per statement); the latency
// histograms are fed by traced statements only, i.e. the proxy's
// sampling rate decides their density, exactly like the proxy's own
// per-stage histograms.
type Stats struct {
	Statements atomic.Int64
	Errors     atomic.Int64
	Parses     atomic.Int64 // texts parsed: those not (yet) kept

	Total    telemetry.Histogram // receive→reply, reported by the server layer
	Queue    telemetry.Histogram // frame receive → stream-worker pickup
	Parse    telemetry.Histogram
	Read     telemetry.Histogram
	Write    telemetry.Histogram
	LockWait telemetry.Histogram
	Commit   telemetry.Histogram

	tables     sync.Map // string -> *tableStat
	tableCount atomic.Int64
}

// note charges one statement to the table. A nil receiver — a table beyond
// the map's bound — counts nothing.
func (ts *tableStat) note(write, failed bool) {
	if ts == nil {
		return
	}
	if write {
		ts.writes.Add(1)
	} else {
		ts.reads.Add(1)
	}
	if failed {
		ts.errors.Add(1)
	}
}

// tableStat returns the named table's counters, or nil once maxTableStats
// tables have them.
func (st *Stats) tableStat(table string) *tableStat {
	table = strings.ToLower(table)
	v, ok := st.tables.Load(table)
	if !ok {
		if st.tableCount.Load() >= maxTableStats {
			return nil
		}
		var loaded bool
		v, loaded = st.tables.LoadOrStore(table, &tableStat{})
		if !loaded {
			st.tableCount.Add(1)
		}
	}
	return v.(*tableStat)
}

// Snapshot exports the node's metrics in the federated shape pulled by
// FrameMetricsPull and merged by the proxy's governor.
func (st *Stats) Snapshot() *telemetry.MetricsSnapshot {
	out := &telemetry.MetricsSnapshot{
		Counters: []telemetry.NamedCounter{
			{Name: "node.statements", Value: st.Statements.Load()},
			{Name: "node.errors", Value: st.Errors.Load()},
			{Name: "node.parses", Value: st.Parses.Load()},
		},
	}
	// Per-table heat rides along as heat.<table>.* counters; names sort
	// deterministically so repeated pulls diff cleanly.
	var tableNames []string
	st.tables.Range(func(k, _ any) bool {
		tableNames = append(tableNames, k.(string))
		return true
	})
	sort.Strings(tableNames)
	for _, name := range tableNames {
		v, _ := st.tables.Load(name)
		ts := v.(*tableStat)
		out.Counters = append(out.Counters,
			telemetry.NamedCounter{Name: "heat." + name + ".reads", Value: ts.reads.Load()},
			telemetry.NamedCounter{Name: "heat." + name + ".writes", Value: ts.writes.Load()},
			telemetry.NamedCounter{Name: "heat." + name + ".errors", Value: ts.errors.Load()},
		)
	}
	add := func(name string, h *telemetry.Histogram) {
		if h.Count() == 0 {
			return
		}
		snap := h.Snapshot()
		out.Histograms = append(out.Histograms, telemetry.NamedHistogram{
			Name:    name,
			Buckets: append([]uint64(nil), snap[:]...),
		})
	}
	add("node.total", &st.Total)
	add("node.queue", &st.Queue)
	add("node.parse", &st.Parse)
	add("node.read", &st.Read)
	add("node.write", &st.Write)
	add("node.lock_wait", &st.LockWait)
	add("node.commit", &st.Commit)
	return out
}

// Stats returns the processor's node-local metrics aggregates.
func (p *Processor) Stats() *Stats { return &p.stats }

// BeginTrace arms span recording for the statements that follow. base is
// the clock zero spans are offset against (the frame receive time on the
// serving layer); started is when the stream worker actually picked the
// statement up — the difference is recorded as a "queue" span. Sessions
// are single-goroutine, so no locking.
func (s *Session) BeginTrace(base, started time.Time) {
	s.recOn = true
	s.recBase = base
	s.rec = s.rec[:0]
	if d := started.Sub(base); d > 0 {
		s.rec = append(s.rec, telemetry.RemoteSpan{Stage: "queue", Offset: 0, Dur: d})
	}
}

// EndTrace disarms recording and returns the spans collected since
// BeginTrace; total (receive→reply, measured by the caller) and the
// span durations are folded into the node aggregates.
func (s *Session) EndTrace(total time.Duration) []telemetry.RemoteSpan {
	if !s.recOn {
		return nil
	}
	s.recOn = false
	st := &s.proc.stats
	st.Total.Observe(total)
	for i := range s.rec {
		sp := &s.rec[i]
		switch sp.Stage {
		case "queue":
			st.Queue.Observe(sp.Dur)
		case "parse":
			st.Parse.Observe(sp.Dur)
		case "read":
			st.Read.Observe(sp.Dur)
		case "write":
			st.Write.Observe(sp.Dur)
		case "lock_wait":
			st.LockWait.Observe(sp.Dur)
		case "commit":
			st.Commit.Observe(sp.Dur)
		}
	}
	return s.rec
}

// recStart returns the span start clock, or the zero time when recording
// is off — the only per-statement cost on the untraced hot path is the
// bool check.
func (s *Session) recStart() time.Time {
	if !s.recOn {
		return time.Time{}
	}
	return time.Now()
}

// recSpan closes a span opened by recStart.
func (s *Session) recSpan(stage string, start time.Time, err error) {
	if !s.recOn || start.IsZero() {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	s.rec = append(s.rec, telemetry.RemoteSpan{
		Stage:  stage,
		Offset: start.Sub(s.recBase),
		Dur:    time.Since(start),
		Err:    msg,
	})
}

// Observability extensions to protocol v2: trace-context propagation,
// span piggybacking and metrics federation.
//
// Trace context is a fixed 9-byte trailer (flags byte + trace ID)
// appended to every FrameQuery and FrameQueryTables payload. Because the trailer is fixed-size
// and unconditional, the server strips it without re-parsing the
// statement head.
//
// When the trailer's flags request tracing, the terminal reply frame
// (FrameOK, FrameEOF or FrameError) carries a span block: the node's
// receive→reply processing time plus a bounded list of its internal
// spans. The block is appended after the frame's normal payload, whose
// decoders ignore trailing bytes.
//
// FrameMetricsPull/FrameMetrics let a proxy scrape a node's histogram
// and counter state for cluster-wide merging.
package protocol

import (
	"fmt"
	"time"

	"shardingsphere/internal/telemetry"
)

// Observability frame types. Client → server continues from 0x07,
// server → client from 0x17.
const (
	FrameMetricsPull byte = 0x08 // empty payload; server replies FrameMetrics
	FrameMetrics     byte = 0x18 // histogram + counter snapshot
)

// --- trace context ---

// TraceContext is the per-statement trace state propagated to a data
// node: a collector-local trace ID and what level of recording the
// statement wants.
type TraceContext struct {
	ID       uint64
	Sampled  bool // record node-side spans and piggyback them
	Detailed bool // statement is under TRACE: record fine-grained spans
}

// Active reports whether the statement wants any node-side recording.
func (tc TraceContext) Active() bool { return tc.Sampled || tc.Detailed }

const (
	traceContextLen   = 9 // flags u8 + trace ID u64
	traceFlagSampled  = 0x01
	traceFlagDetailed = 0x02
)

// AppendTraceContext appends the fixed-size trace-context trailer to a
// statement payload.
func AppendTraceContext(payload []byte, tc TraceContext) []byte {
	var flags byte
	if tc.Sampled {
		flags |= traceFlagSampled
	}
	if tc.Detailed {
		flags |= traceFlagDetailed
	}
	w := &writer{buf: payload}
	w.buf = append(w.buf, flags)
	w.u64(tc.ID)
	return w.buf
}

// PeekTraceActive reports whether a statement payload's trace-context
// trailer requests recording, without decoding anything — cheap enough
// for the dispatch path, which uses it to decide whether to stamp the
// frame's receive time.
func PeekTraceActive(payload []byte) bool {
	if len(payload) < traceContextLen {
		return false
	}
	return payload[len(payload)-traceContextLen]&(traceFlagSampled|traceFlagDetailed) != 0
}

// SplitTraceContext strips and parses the trace-context trailer from a
// statement payload. Errors on payloads too short to carry the trailer.
func SplitTraceContext(payload []byte) (TraceContext, []byte, error) {
	if len(payload) < traceContextLen {
		return TraceContext{}, nil, errShortPayload
	}
	tail := payload[len(payload)-traceContextLen:]
	flags := tail[0]
	if flags&^(traceFlagSampled|traceFlagDetailed) != 0 {
		return TraceContext{}, nil, fmt.Errorf("protocol: unknown trace flags 0x%02x", flags)
	}
	r := &reader{buf: tail, pos: 1}
	id, err := r.u64()
	if err != nil {
		return TraceContext{}, nil, err
	}
	return TraceContext{
		ID:       id,
		Sampled:  flags&traceFlagSampled != 0,
		Detailed: flags&traceFlagDetailed != 0,
	}, payload[:len(payload)-traceContextLen], nil
}

// --- span blocks ---

// Span piggyback bounds. A block never exceeds MaxSpanBlockBytes nor
// MaxBlockSpans spans; the encoder drops the tail (never the head, so
// queue/parse spans survive) and the decoder rejects anything larger.
const (
	MaxBlockSpans     = 64
	MaxSpanBlockBytes = 8 << 10
)

// AppendSpanBlock appends a span block to a terminal reply frame's
// payload: the node's receive→reply total followed by its spans.
func AppendSpanBlock(payload []byte, total time.Duration, spans []telemetry.RemoteSpan) []byte {
	w := &writer{buf: payload}
	countPos := len(w.buf)
	w.u32(0)
	w.u64(uint64(total))
	n := 0
	for _, s := range spans {
		if n == MaxBlockSpans {
			break
		}
		// Worst-case span size: stage + err string headers (8), stage
		// text, err text, offset + dur (16).
		if len(w.buf)-countPos+24+len(s.Stage)+len(s.Err) > MaxSpanBlockBytes {
			break
		}
		w.str(s.Stage)
		w.u64(uint64(s.Offset))
		w.u64(uint64(s.Dur))
		w.str(s.Err)
		n++
	}
	putU32(w.buf[countPos:], uint32(n))
	return w.buf
}

// TerminalSpanTail returns the span-block bytes appended to a terminal
// reply frame's payload, or nil when the frame carries none. The span
// block sits at a fixed offset per frame type — OK's 16-byte body,
// EOF's empty body, Error's length-prefixed message — so locating it
// needs no full reparse.
func TerminalSpanTail(typ byte, payload []byte) []byte {
	switch typ {
	case FrameOK:
		if len(payload) > 16 {
			return payload[16:]
		}
	case FrameEOF:
		if len(payload) > 0 {
			return payload
		}
	case FrameError:
		if len(payload) >= 4 {
			n := 4 + int(uint32(payload[0])<<24|uint32(payload[1])<<16|uint32(payload[2])<<8|uint32(payload[3]))
			if n >= 4 && len(payload) > n {
				return payload[n:]
			}
		}
	}
	return nil
}

// DecodeSpanBlock parses a span block from the tail of a terminal reply
// frame. Truncated or oversized blocks error cleanly; the frame itself
// is length-delimited, so a bad block can never desynchronize the
// stream.
func DecodeSpanBlock(tail []byte) (total time.Duration, spans []telemetry.RemoteSpan, err error) {
	if len(tail) > MaxSpanBlockBytes {
		return 0, nil, fmt.Errorf("protocol: %d-byte span block exceeds limit %d", len(tail), MaxSpanBlockBytes)
	}
	r := &reader{buf: tail}
	n, err := r.u32()
	if err != nil {
		return 0, nil, err
	}
	if n > MaxBlockSpans {
		return 0, nil, fmt.Errorf("protocol: %d spans in block", n)
	}
	t, err := r.u64()
	if err != nil {
		return 0, nil, err
	}
	total = time.Duration(t)
	spans = make([]telemetry.RemoteSpan, 0, n)
	for i := uint32(0); i < n; i++ {
		var s telemetry.RemoteSpan
		if s.Stage, err = r.str(); err != nil {
			return 0, nil, err
		}
		off, err := r.u64()
		if err != nil {
			return 0, nil, err
		}
		dur, err := r.u64()
		if err != nil {
			return 0, nil, err
		}
		if s.Err, err = r.str(); err != nil {
			return 0, nil, err
		}
		s.Offset = time.Duration(off)
		s.Dur = time.Duration(dur)
		spans = append(spans, s)
	}
	if r.pos != len(tail) {
		return 0, nil, fmt.Errorf("protocol: %d trailing bytes after span block", len(tail)-r.pos)
	}
	return total, spans, nil
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

// --- metrics snapshots ---

// Snapshot size bounds: generous for real deployments, tight enough to
// reject garbage before allocating.
const (
	maxSnapshotHistograms = 4096
	maxSnapshotBuckets    = 64
	maxSnapshotCounters   = 65536
)

// EncodeMetrics builds a FrameMetrics payload from a node's snapshot.
func EncodeMetrics(m *telemetry.MetricsSnapshot) []byte {
	w := &writer{}
	w.u32(uint32(len(m.Histograms)))
	for _, h := range m.Histograms {
		w.str(h.Name)
		w.u32(uint32(len(h.Buckets)))
		for _, c := range h.Buckets {
			w.u64(c)
		}
	}
	w.u32(uint32(len(m.Counters)))
	for _, c := range m.Counters {
		w.str(c.Name)
		w.u64(uint64(c.Value))
	}
	return w.buf
}

// DecodeMetrics parses a FrameMetrics payload.
func DecodeMetrics(payload []byte) (*telemetry.MetricsSnapshot, error) {
	r := &reader{buf: payload}
	nh, err := r.u32()
	if err != nil {
		return nil, err
	}
	if nh > maxSnapshotHistograms {
		return nil, fmt.Errorf("protocol: %d histograms in snapshot", nh)
	}
	out := &telemetry.MetricsSnapshot{}
	for i := uint32(0); i < nh; i++ {
		var h telemetry.NamedHistogram
		if h.Name, err = r.str(); err != nil {
			return nil, err
		}
		nb, err := r.u32()
		if err != nil {
			return nil, err
		}
		if nb > maxSnapshotBuckets {
			return nil, fmt.Errorf("protocol: %d buckets in histogram %q", nb, h.Name)
		}
		h.Buckets = make([]uint64, nb)
		for j := range h.Buckets {
			if h.Buckets[j], err = r.u64(); err != nil {
				return nil, err
			}
		}
		out.Histograms = append(out.Histograms, h)
	}
	nc, err := r.u32()
	if err != nil {
		return nil, err
	}
	if nc > maxSnapshotCounters {
		return nil, fmt.Errorf("protocol: %d counters in snapshot", nc)
	}
	for i := uint32(0); i < nc; i++ {
		var c telemetry.NamedCounter
		if c.Name, err = r.str(); err != nil {
			return nil, err
		}
		v, err := r.u64()
		if err != nil {
			return nil, err
		}
		c.Value = int64(v)
		out.Counters = append(out.Counters, c)
	}
	return out, nil
}

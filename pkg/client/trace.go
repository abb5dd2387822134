// Client-side observability: trace-context injection, remote span
// grafting, and metrics scraping over wire v2.
package client

import (
	"context"
	"fmt"
	"time"

	"shardingsphere/internal/protocol"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/telemetry"
)

// spanExpect is the client half of one traced statement: the trace to
// graft remote spans into and the send time the wire gap is measured
// against. Zero value means "not traced".
type spanExpect struct {
	tr    *telemetry.Trace
	start time.Time
}

// beginTrace resolves the statement's trace context from ctx. With no
// sampled trace in ctx both returns are zero and the statement travels
// untraced.
func beginTrace(ctx context.Context) (protocol.TraceContext, spanExpect) {
	tr := telemetry.TraceFromContext(ctx)
	tc := protocol.TraceContext{ID: tr.ID(), Sampled: tr.Sampled(), Detailed: tr.Detailed()}
	if !tc.Active() {
		return protocol.TraceContext{}, spanExpect{}
	}
	return tc, spanExpect{tr: tr, start: time.Now()}
}

// observe grafts the span block piggybacked on a terminal frame into
// the statement's trace. Replies without a block (early server errors,
// backends that don't trace) and malformed blocks are skipped silently:
// span data is best-effort, the statement result is what matters.
func (e spanExpect) observe(c *Conn, f muxFrame) {
	if e.tr == nil {
		return
	}
	tail := protocol.TerminalSpanTail(f.typ, f.payload)
	if tail == nil {
		return
	}
	total, spans, err := protocol.DecodeSpanBlock(tail)
	if err != nil {
		return
	}
	at := f.at
	if at.IsZero() {
		at = time.Now()
	}
	elapsed := at.Sub(e.start)
	e.tr.GraftRemote(c.source, e.start, elapsed, total, spans)
}

// PullMetrics scrapes the server's metrics snapshot (histograms and
// counters) over FrameMetricsPull.
func (c *Conn) PullMetrics(ctx context.Context) (*telemetry.MetricsSnapshot, error) {
	if c.closed {
		return nil, resource.ErrConnClosed
	}
	if err := c.t.send(c.st.id, outFrame{protocol.FrameMetricsPull, nil}); err != nil {
		return nil, c.fail(err)
	}
	f, err := c.pop(ctx)
	if err != nil {
		return nil, err
	}
	switch f.typ {
	case protocol.FrameMetrics:
		snap, err := protocol.DecodeMetrics(f.payload)
		if err != nil {
			return nil, c.fail(err)
		}
		return snap, nil
	case protocol.FrameError:
		msg, _ := protocol.DecodeError(f.payload)
		return nil, remoteError(msg)
	default:
		return nil, c.fail(fmt.Errorf("client: unexpected frame %#x to metrics pull", f.typ))
	}
}

// PullMetrics implements resource.Remote: scrape the node behind this
// pool on a fresh logical connection.
func (p *muxPool) PullMetrics(ctx context.Context) (*telemetry.MetricsSnapshot, error) {
	c, err := p.open()
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.PullMetrics(ctx)
}

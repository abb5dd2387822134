package protocol

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"shardingsphere/internal/telemetry"
)

func TestTraceContextRoundTrip(t *testing.T) {
	body := EncodeQuery("SELECT 1", nil)
	tc := TraceContext{ID: 42, Sampled: true, Detailed: true}
	payload := AppendTraceContext(append([]byte(nil), body...), tc)

	got, stripped, err := SplitTraceContext(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != tc {
		t.Fatalf("trace context: got %+v want %+v", got, tc)
	}
	if !bytes.Equal(stripped, body) {
		t.Fatalf("stripped body differs from original")
	}
	// The statement head still decodes from the stripped payload.
	sql, _, err := DecodeQuery(stripped)
	if err != nil || sql != "SELECT 1" {
		t.Fatalf("decode after strip: %q %v", sql, err)
	}
}

func TestSplitTraceContextTruncated(t *testing.T) {
	for n := 0; n < traceContextLen; n++ {
		if _, _, err := SplitTraceContext(make([]byte, n)); err == nil {
			t.Fatalf("%d-byte payload should error", n)
		}
	}
}

func TestSpanBlockRoundTrip(t *testing.T) {
	spans := []telemetry.RemoteSpan{
		{Stage: "queue", Offset: 0, Dur: 3 * time.Microsecond},
		{Stage: "parse", Offset: 3 * time.Microsecond, Dur: 40 * time.Microsecond},
		{Stage: "read", Offset: 50 * time.Microsecond, Dur: 200 * time.Microsecond, Err: "boom"},
	}
	okBody := EncodeOK(1, 0)
	payload := AppendSpanBlock(append([]byte(nil), okBody...), 300*time.Microsecond, spans)

	// The OK head still decodes (trailing bytes ignored by old peers).
	if _, _, err := DecodeOK(payload); err != nil {
		t.Fatal(err)
	}
	total, got, err := DecodeSpanBlock(payload[len(okBody):])
	if err != nil {
		t.Fatal(err)
	}
	if total != 300*time.Microsecond {
		t.Fatalf("total = %v", total)
	}
	if len(got) != len(spans) {
		t.Fatalf("got %d spans, want %d", len(got), len(spans))
	}
	for i := range spans {
		if got[i] != spans[i] {
			t.Fatalf("span %d: got %+v want %+v", i, got[i], spans[i])
		}
	}
}

func TestSpanBlockBounds(t *testing.T) {
	// More spans than the cap: the encoder keeps the head, drops the tail.
	many := make([]telemetry.RemoteSpan, MaxBlockSpans+10)
	for i := range many {
		many[i] = telemetry.RemoteSpan{Stage: "read", Dur: time.Duration(i)}
	}
	block := AppendSpanBlock(nil, time.Millisecond, many)
	if len(block) > MaxSpanBlockBytes {
		t.Fatalf("block is %d bytes", len(block))
	}
	_, got, err := DecodeSpanBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != MaxBlockSpans {
		t.Fatalf("decoded %d spans, want %d", len(got), MaxBlockSpans)
	}

	// Giant error strings: the byte bound kicks in before the span cap.
	huge := []telemetry.RemoteSpan{
		{Stage: "read", Err: strings.Repeat("x", 6<<10)},
		{Stage: "read", Err: strings.Repeat("y", 6<<10)},
	}
	block = AppendSpanBlock(nil, time.Millisecond, huge)
	if len(block) > MaxSpanBlockBytes {
		t.Fatalf("block is %d bytes", len(block))
	}
	if _, got, err = DecodeSpanBlock(block); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("decoded %d spans, want 1", len(got))
	}
}

func TestDecodeSpanBlockRejectsBadInput(t *testing.T) {
	good := AppendSpanBlock(nil, time.Millisecond, []telemetry.RemoteSpan{{Stage: "read", Dur: time.Microsecond}})

	// Every truncation of a valid block errors cleanly.
	for n := 0; n < len(good); n++ {
		if _, _, err := DecodeSpanBlock(good[:n]); err == nil {
			t.Fatalf("truncated block (%d/%d bytes) decoded", n, len(good))
		}
	}
	// Trailing garbage after a well-formed block errors.
	if _, _, err := DecodeSpanBlock(append(append([]byte(nil), good...), 0xde, 0xad)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// Oversized blocks are rejected before parsing.
	if _, _, err := DecodeSpanBlock(make([]byte, MaxSpanBlockBytes+1)); err == nil {
		t.Fatal("oversized block accepted")
	}
	// A span count above the cap is rejected.
	w := &writer{}
	w.u32(MaxBlockSpans + 1)
	w.u64(0)
	if _, _, err := DecodeSpanBlock(w.buf); err == nil {
		t.Fatal("over-cap span count accepted")
	}
}

func TestMetricsRoundTrip(t *testing.T) {
	in := &telemetry.MetricsSnapshot{
		Histograms: []telemetry.NamedHistogram{
			{Name: "stage.total", Buckets: []uint64{0, 1, 2, 3}},
			{Name: "stage.parse", Buckets: []uint64{9}},
		},
		Counters: []telemetry.NamedCounter{
			{Name: "statements", Value: 123},
			{Name: "drift", Value: -7},
		},
	}
	out, err := DecodeMetrics(EncodeMetrics(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Histograms) != 2 || len(out.Counters) != 2 {
		t.Fatalf("got %d/%d entries", len(out.Histograms), len(out.Counters))
	}
	for i, h := range in.Histograms {
		g := out.Histograms[i]
		if g.Name != h.Name || len(g.Buckets) != len(h.Buckets) {
			t.Fatalf("histogram %d mismatch: %+v vs %+v", i, g, h)
		}
		for j := range h.Buckets {
			if g.Buckets[j] != h.Buckets[j] {
				t.Fatalf("histogram %s bucket %d: %d vs %d", h.Name, j, g.Buckets[j], h.Buckets[j])
			}
		}
	}
	for i, c := range in.Counters {
		if out.Counters[i] != c {
			t.Fatalf("counter %d: %+v vs %+v", i, out.Counters[i], c)
		}
	}
}

func TestDecodeMetricsRejectsBadInput(t *testing.T) {
	good := EncodeMetrics(&telemetry.MetricsSnapshot{
		Histograms: []telemetry.NamedHistogram{{Name: "h", Buckets: []uint64{1, 2}}},
		Counters:   []telemetry.NamedCounter{{Name: "c", Value: 1}},
	})
	for n := 0; n < len(good); n++ {
		if _, err := DecodeMetrics(good[:n]); err == nil {
			t.Fatalf("truncated metrics (%d/%d bytes) decoded", n, len(good))
		}
	}
	w := &writer{}
	w.u32(maxSnapshotHistograms + 1)
	if _, err := DecodeMetrics(w.buf); err == nil {
		t.Fatal("over-cap histogram count accepted")
	}
}

// FuzzTraceContext feeds arbitrary bytes through the trace-context and
// span-block decoders: they must never panic, and anything they accept
// must survive a re-encode/re-decode round trip.
func FuzzTraceContext(f *testing.F) {
	f.Add(AppendTraceContext(EncodeQuery("SELECT 1", nil), TraceContext{ID: 7, Sampled: true}))
	f.Add(AppendSpanBlock(nil, time.Millisecond, []telemetry.RemoteSpan{
		{Stage: "parse", Offset: time.Microsecond, Dur: 3 * time.Microsecond},
		{Stage: "read", Dur: 9 * time.Microsecond, Err: "x"},
	}))
	f.Add([]byte{})
	f.Add(make([]byte, traceContextLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		if tc, body, err := SplitTraceContext(data); err == nil {
			got, _, err := SplitTraceContext(AppendTraceContext(append([]byte(nil), body...), tc))
			if err != nil || got != tc {
				t.Fatalf("trace context re-decode: %+v vs %+v (%v)", got, tc, err)
			}
		}
		if total, spans, err := DecodeSpanBlock(data); err == nil {
			re := AppendSpanBlock(nil, total, spans)
			total2, spans2, err := DecodeSpanBlock(re)
			if err != nil || total2 != total || len(spans2) != len(spans) {
				t.Fatalf("span block re-decode: %v (%d vs %d spans)", err, len(spans2), len(spans))
			}
		}
		DecodeHello(data)
		DecodeMetrics(data)
	})
}

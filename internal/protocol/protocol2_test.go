package protocol

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"shardingsphere/internal/sqltypes"
)

func TestFrameV2RoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteFrameV2(w, FrameQuery, 7, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrameV2(w, FrameEOF, 0xDEADBEEF, nil); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r := bufio.NewReader(&buf)
	typ, stream, payload, err := ReadFrameV2(r, MaxFrame)
	if err != nil || typ != FrameQuery || stream != 7 || string(payload) != "hello" {
		t.Fatalf("frame 1: %v %d %v %q", typ, stream, err, payload)
	}
	typ, stream, payload, err = ReadFrameV2(r, MaxFrame)
	if err != nil || typ != FrameEOF || stream != 0xDEADBEEF || len(payload) != 0 {
		t.Fatalf("frame 2: %v %d %v %q", typ, stream, err, payload)
	}
}

func TestReadFrameLimitRejectsOversized(t *testing.T) {
	// A corrupted length prefix claiming 1GB must be rejected before
	// any allocation, with a typed error carrying both sizes.
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], 1<<30)
	hdr[4] = FrameHeader
	_, _, err := ReadFrameLimit(bufio.NewReader(bytes.NewReader(hdr[:])), 1<<20)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	var tooLarge *FrameTooLargeError
	if !errors.As(err, &tooLarge) || tooLarge.Size != 1<<30 || tooLarge.Limit != 1<<20 {
		t.Fatalf("typed error: %#v", err)
	}

	// v2 framing enforces the same bound.
	var hdr2 [9]byte
	binary.BigEndian.PutUint32(hdr2[:4], 1<<30)
	hdr2[4] = FrameRowBatch
	_, _, _, err = ReadFrameV2(bufio.NewReader(bytes.NewReader(hdr2[:])), 1<<20)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("v2: want ErrFrameTooLarge, got %v", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	m, err := DecodeHello(EncodeHello(MaxFrame))
	if err != nil || m != MaxFrame {
		t.Fatalf("hello: %d %v", m, err)
	}
	if _, err := DecodeHello([]byte{1, 2}); err == nil {
		t.Fatal("short hello accepted")
	}
	// Version 2's Hello, with and without its capability word, version
	// 3's, and a version not yet written: each is refused by number.
	for _, old := range [][]byte{
		{0, 0, 0, 2, 1, 0, 0, 0},
		{0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0, 7},
		{0, 0, 0, 3, 1, 0, 0, 0},
		{0, 0, 0, 5, 1, 0, 0, 0},
	} {
		_, err := DecodeHello(old)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d,", old[3])) {
			t.Fatalf("hello % x: %v", old, err)
		}
	}
}

func TestRowBatchRoundTrip(t *testing.T) {
	var enc BatchEncoder
	want := []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewString("a")},
		{sqltypes.NewInt(2), sqltypes.Null},
		{}, // empty row survives
		{sqltypes.NewFloat(2.5), sqltypes.NewBool(true), sqltypes.NewString("z")},
	}
	for _, r := range want {
		enc.Append(r)
	}
	if enc.Rows() != len(want) {
		t.Fatalf("rows: %d", enc.Rows())
	}
	got, err := DecodeRowBatch(enc.Payload(), nil)
	if err != nil || len(got) != len(want) {
		t.Fatalf("decode: %v %v", got, err)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d: %v", i, got[i])
		}
		for j := range want[i] {
			if got[i][j].Kind != want[i][j].Kind {
				t.Fatalf("row %d col %d: %v vs %v", i, j, got[i][j], want[i][j])
			}
		}
	}

	// Reset leaves the taken payload alone and starts the next one afresh.
	first := enc.Payload()
	enc.Reset()
	if enc.Rows() != 0 || enc.Size() != 0 {
		t.Fatalf("reset: rows=%d size=%d", enc.Rows(), enc.Size())
	}
	enc.Append(sqltypes.Row{sqltypes.NewInt(7)})
	got, err = DecodeRowBatch(enc.Payload(), got[:0])
	if err != nil || len(got) != 1 || got[0][0].I != 7 {
		t.Fatalf("after reset: %v %v", got, err)
	}
	if cap(enc.Payload()) != len(first) {
		t.Fatalf("next payload starts at %d bytes, the last one reached %d", cap(enc.Payload()), len(first))
	}
	if got, err = DecodeRowBatch(first, nil); err != nil || len(got) != len(want) {
		t.Fatalf("taken payload after reset: %v %v", got, err)
	}
}

// A batch's rows are carved from one value array: decoding costs one
// allocation for the values however many rows there are, and appending to
// a row leaves its neighbour alone — also when the rows differ in width,
// where the first row's width undersizes the array.
func TestRowBatchRowsShareOneArray(t *testing.T) {
	var enc BatchEncoder
	for i := 0; i < 50; i++ {
		enc.Append(sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(-i))})
	}
	payload, dst := enc.Payload(), make([]sqltypes.Row, 0, 50)
	if n := testing.AllocsPerRun(100, func() { dst, _ = DecodeRowBatch(payload, dst[:0]) }); n != 1 {
		t.Fatalf("decoding 50 rows allocates %v times, want the one value array", n)
	}
	_ = append(dst[0], sqltypes.NewInt(99))
	if dst[1][0].I != 1 {
		t.Fatalf("appending to row 0 overwrote row 1: %v", dst[1])
	}

	enc.Reset()
	enc.Append(sqltypes.Row{sqltypes.NewInt(1)})
	enc.Append(sqltypes.Row{sqltypes.NewInt(2), sqltypes.NewInt(3), sqltypes.NewInt(4)})
	enc.Append(sqltypes.Row{sqltypes.NewInt(5)})
	got, err := DecodeRowBatch(enc.Payload(), nil)
	if err != nil || len(got) != 3 || got[0][0].I != 1 || len(got[1]) != 3 || got[1][2].I != 4 || got[2][0].I != 5 {
		t.Fatalf("ragged batch: %v %v", got, err)
	}
}

func TestRowBatchRejectsBogusCounts(t *testing.T) {
	// Claimed row count far beyond what the payload could hold.
	var w writer
	w.u32(1 << 30)
	if _, err := DecodeRowBatch(w.buf, nil); err == nil {
		t.Fatal("bogus row count accepted")
	}
	// One row claiming 4096 values with none behind it: rejected before
	// the row is allocated (4096 values would be ~160KB for 8 bytes in).
	w = writer{}
	w.u32(1)
	w.u32(4096)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeRowBatch(w.buf, nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("bogus value count accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<10 {
		t.Fatalf("decoding %d bytes allocated %d", len(w.buf), grew)
	}
}

func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	bw := bufio.NewWriter(&seed)
	WriteFrame(bw, FrameQuery, EncodeQuery("SELECT 1", nil))
	bw.Flush()
	f.Add(seed.Bytes())
	// A statement as the client sends it, whose text ends in nine bytes
	// that read as a trailer themselves.
	seed.Reset()
	lookalike := "SELECT '" + string(AppendTraceContext(nil, TraceContext{ID: 9, Sampled: true}))
	WriteFrame(bw, FrameQuery, AppendTraceContext(EncodeQuery(lookalike, nil), TraceContext{ID: 42, Detailed: true}))
	bw.Flush()
	f.Add(seed.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x13})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			typ, payload, err := ReadFrameLimit(r, 1<<16)
			if err != nil {
				return // must never panic or allocate past the limit
			}
			// Exercise the payload decoders on whatever came through.
			switch typ {
			case FrameQuery:
				checkStatementRoundTrip(t, payload)
			case FrameOK:
				DecodeOK(payload)
			case FrameHeader:
				DecodeHeader(payload)
			case FrameRowBatch:
				DecodeRowBatch(payload, nil)
			case FrameHello, FrameHelloAck:
				DecodeHello(payload)
			}
		}
	})
}

// checkStatementRoundTrip decodes a statement payload the way the server
// does — strip the trailer, then the head — and requires whatever it
// accepts to survive the client's encoding: the trailer taken off is the
// one appended, whatever the bytes before it look like.
func checkStatementRoundTrip(t *testing.T, payload []byte) {
	tc, body, err := SplitTraceContext(payload)
	if err != nil {
		return
	}
	sql, args, err := DecodeQuery(body)
	if err != nil {
		return
	}
	head := EncodeQuery(sql, args)
	tc2, body2, err := SplitTraceContext(AppendTraceContext(bytes.Clone(head), tc))
	if err != nil || tc2 != tc || !bytes.Equal(body2, head) {
		t.Fatalf("statement %q re-split: %+v vs %+v, %v", sql, tc2, tc, err)
	}
	sql2, args2, err := DecodeQuery(body2)
	if err != nil || sql2 != sql || len(args2) != len(args) {
		t.Fatalf("statement %q re-decoded as %q with %d args: %v", sql, sql2, len(args2), err)
	}
}

// FuzzDecodeRowBatch targets the decoder every row on either wire passes
// through. Seeds are real BatchEncoder output, every truncation of it,
// and copies with one length field (row count, value count, string
// length) inflated past the payload.
func FuzzDecodeRowBatch(f *testing.F) {
	var enc BatchEncoder
	enc.Append(sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewString("x"), sqltypes.Null})
	enc.Append(sqltypes.Row{})
	enc.Append(sqltypes.Row{sqltypes.NewFloat(2.5), sqltypes.NewBool(true)})
	good := bytes.Clone(enc.Payload())
	f.Add(good)
	for cut := 0; cut < len(good); cut++ {
		f.Add(good[:cut])
	}
	// Offsets: row count at 0, first row's value count at 4, and the
	// string's length after that count, an int value (1+8) and a kind byte.
	for _, off := range []int{0, 4, 4 + 4 + 9 + 1} {
		b := bytes.Clone(good)
		binary.BigEndian.PutUint32(b[off:], 1<<30)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := DecodeRowBatch(data, nil)
		// A row costs at least 4 payload bytes and a value at least 1, so
		// whatever was decoded — error or not — is bounded by the input.
		values := 0
		for i, row := range rows {
			values += len(row)
			// Rows share an array: one with spare capacity would let an
			// append write into the next row.
			if cap(row) != len(row) {
				t.Fatalf("row %d has %d values and room for %d", i, len(row), cap(row))
			}
		}
		if len(rows) > len(data)/4 || values > len(data) {
			t.Fatalf("%d rows / %d values decoded from %d bytes", len(rows), values, len(data))
		}
		if err != nil || len(rows) == 0 {
			return
		}
		// A successfully decoded batch must re-encode and decode cleanly.
		var enc BatchEncoder
		for _, row := range rows {
			enc.Append(row)
		}
		again, err := DecodeRowBatch(enc.Payload(), nil)
		if err != nil || len(again) != len(rows) {
			t.Fatalf("re-decode: %d rows, %v", len(again), err)
		}
	})
}

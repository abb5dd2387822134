package protocol

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
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
	v, m, err := DecodeHello(EncodeHello(Version2, MaxFrame))
	if err != nil || v != Version2 || m != MaxFrame {
		t.Fatalf("hello: %d %d %v", v, m, err)
	}
	if _, _, err := DecodeHello([]byte{1, 2}); err == nil {
		t.Fatal("short hello accepted")
	}
}

func TestPrepareExecStmtRoundTrip(t *testing.T) {
	id, sql, err := DecodePrepare(EncodePrepare(42, "SELECT * FROM t WHERE id = ?"))
	if err != nil || id != 42 || sql != "SELECT * FROM t WHERE id = ?" {
		t.Fatalf("prepare: %d %q %v", id, sql, err)
	}
	args := []sqltypes.Value{sqltypes.NewInt(9), sqltypes.NewString("x"), sqltypes.Null}
	id, got, err := DecodeExecStmt(EncodeExecStmt(42, args))
	if err != nil || id != 42 || len(got) != 3 {
		t.Fatalf("execstmt: %d %v %v", id, got, err)
	}
	if got[0].I != 9 || got[1].S != "x" || !got[2].IsNull() {
		t.Fatalf("execstmt args: %v", got)
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

	// Reset reuses the buffer.
	enc.Reset()
	if enc.Rows() != 0 || enc.Size() != 0 {
		t.Fatalf("reset: rows=%d size=%d", enc.Rows(), enc.Size())
	}
	enc.Append(sqltypes.Row{sqltypes.NewInt(7)})
	got, err = DecodeRowBatch(enc.Payload(), got[:0])
	if err != nil || len(got) != 1 || got[0][0].I != 7 {
		t.Fatalf("after reset: %v %v", got, err)
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
				DecodeQuery(payload)
			case FrameOK:
				DecodeOK(payload)
			case FrameHeader:
				DecodeHeader(payload)
			case FrameRowBatch:
				DecodeRowBatch(payload, nil)
			case FrameHello, FrameHelloAck:
				DecodeHello(payload)
			case FramePrepare:
				DecodePrepare(payload)
			case FrameExecStmt:
				DecodeExecStmt(payload)
			}
		}
	})
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
		for _, row := range rows {
			values += len(row)
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

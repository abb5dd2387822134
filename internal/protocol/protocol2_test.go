package protocol

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
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
	payload := enc.Payload()
	if enc.Rows() != 0 || enc.Size() != 0 {
		t.Fatalf("after Payload: rows=%d size=%d", enc.Rows(), enc.Size())
	}
	got, err := DecodeRowBatch(*payload, nil)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("decode: %v %v", got, err)
	}

	// A payload taken but not handed back — still queued for the writer —
	// is not written over by the encoder's next batch.
	enc.Append(sqltypes.Row{sqltypes.NewInt(9)})
	queued := enc.Payload()
	if &(*queued)[0] == &(*payload)[0] {
		t.Fatal("the next batch was built in a payload not yet handed back")
	}
	if got, err = DecodeRowBatch(*payload, nil); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("taken payload after the next batch: %v %v", got, err)
	}

	// A payload handed back after its write is the buffer the next Append
	// uses (one P, so the pool's per-P slot is the test's own).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ReleaseBatch(payload)
	enc.Append(sqltypes.Row{sqltypes.NewInt(7)})
	next := enc.Payload()
	if got, err = DecodeRowBatch(*next, got[:0]); err != nil || len(got) != 1 || got[0][0].I != 7 {
		t.Fatalf("after release: %v %v", got, err)
	}
	if next != payload && !raceDetector() {
		t.Fatal("the next batch did not start in the buffer handed back")
	}

	// A buffer one oversized row grew past 2 × DefaultBatchBytes is
	// dropped, not pooled.
	enc.Append(sqltypes.Row{sqltypes.NewString(strings.Repeat("x", 2*DefaultBatchBytes))})
	big := enc.Payload()
	ReleaseBatch(big)
	enc.Append(sqltypes.Row{sqltypes.NewInt(8)})
	if enc.Payload() == big {
		t.Fatalf("a %d-byte buffer went back to the pool", cap(*big))
	}
}

// raceDetector reports whether the test binary was built with -race,
// under which sync.Pool drops a random quarter of what it is given.
func raceDetector() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// A statement's text and arguments are copies: a node keeps argument
// values in its tables, and they must not alias the frame.
func TestDecodeQueryOwnsItsStrings(t *testing.T) {
	payload := EncodeQuery("SELECT v FROM t WHERE k = ?", []sqltypes.Value{sqltypes.NewString("key-1")})
	sql, args, err := DecodeQuery(payload)
	if err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		payload[i] = 0xff
	}
	if sql != "SELECT v FROM t WHERE k = ?" || len(args) != 1 || args[0].S != "key-1" {
		t.Fatalf("after overwriting the payload: %q %v", sql, args)
	}
}

// A row batch's strings are views of the payload: decoding a payload and
// a copy of it gives the same rows, and the strings cost no allocation —
// the value array is the only one.
func TestRowBatchStringsViewThePayload(t *testing.T) {
	var enc BatchEncoder
	for i := 0; i < 50; i++ {
		enc.Append(sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("row-%02d", i)), sqltypes.NewString("")})
	}
	payload := *enc.Payload()
	got, err := DecodeRowBatch(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeRowBatch(bytes.Clone(payload), nil)
	if err != nil || !reflect.DeepEqual(got, want) || got[49][1].S != "row-49" {
		t.Fatalf("payload and its copy decode differently: %v / %v %v", got, want, err)
	}
	dst := make([]sqltypes.Row, 0, 50)
	if n := testing.AllocsPerRun(100, func() { dst, _ = DecodeRowBatch(payload, dst[:0]) }); n != 1 {
		t.Fatalf("decoding 50 rows with strings allocates %v times, want the one value array", n)
	}
}

// dst grows once, by the rows the payload declares: decoded onto nil, a
// batch is one exact allocation of row headers.
func TestRowBatchGrowsDstOnce(t *testing.T) {
	var enc BatchEncoder
	for i := 0; i < 100; i++ {
		enc.Append(sqltypes.Row{sqltypes.NewInt(int64(i))})
	}
	payload := *enc.Payload()
	rows, err := DecodeRowBatch(payload, nil)
	if err != nil || len(rows) != 100 || cap(rows) != 100 {
		t.Fatalf("one batch onto nil: len %d cap %d %v", len(rows), cap(rows), err)
	}
	if rows, err = DecodeRowBatch(payload, rows); err != nil || len(rows) != 200 || rows[199][0].I != 99 {
		t.Fatalf("a second batch onto the first: len %d %v", len(rows), err)
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
	payload, dst := *enc.Payload(), make([]sqltypes.Row, 0, 50)
	if n := testing.AllocsPerRun(100, func() { dst, _ = DecodeRowBatch(payload, dst[:0]) }); n != 1 {
		t.Fatalf("decoding 50 rows allocates %v times, want the one value array", n)
	}
	_ = append(dst[0], sqltypes.NewInt(99))
	if dst[1][0].I != 1 {
		t.Fatalf("appending to row 0 overwrote row 1: %v", dst[1])
	}

	enc.Append(sqltypes.Row{sqltypes.NewInt(1)})
	enc.Append(sqltypes.Row{sqltypes.NewInt(2), sqltypes.NewInt(3), sqltypes.NewInt(4)})
	enc.Append(sqltypes.Row{sqltypes.NewInt(5)})
	got, err := DecodeRowBatch(*enc.Payload(), nil)
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
	// Table lists: one with a repeated name, every truncation of it, and
	// one whose count claims more names than its bytes hold.
	list := AppendTraceContext(EncodeQueryTables("SELECT id FROM t_0 WHERE id > ?", []sqltypes.Value{sqltypes.NewInt(3)},
		[]string{"t_0", "t_2", "t_0"}), TraceContext{ID: 5, Sampled: true})
	for _, payload := range [][]byte{list, list[:len(list)-traceContextLen-2], list[:len(list)/2]} {
		seed.Reset()
		WriteFrame(bw, FrameQueryTables, payload)
		bw.Flush()
		f.Add(bytes.Clone(seed.Bytes()))
	}
	overflow := bytes.Clone(list)
	binary.BigEndian.PutUint32(overflow[len(EncodeQuery("SELECT id FROM t_0 WHERE id > ?", []sqltypes.Value{sqltypes.NewInt(3)})):], 1<<30)
	seed.Reset()
	WriteFrame(bw, FrameQueryTables, overflow)
	WriteFrame(bw, FrameEOF, AppendTableRows(nil, []int{2, 0, 7}))
	WriteFrame(bw, FrameEOF, []byte{0x40, 0, 0, 0, 1})
	bw.Flush()
	f.Add(bytes.Clone(seed.Bytes()))
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
			case FrameQueryTables:
				checkTablesRoundTrip(t, payload)
			case FrameEOF:
				if counts, rest, err := SplitTableRows(payload); err == nil {
					if again := AppendTableRows(nil, counts); !bytes.Equal(append(again, rest...), payload) {
						t.Fatalf("table row counts %v re-encode as % x, decoded from % x", counts, again, payload)
					}
				}
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

// checkTablesRoundTrip is checkStatementRoundTrip for a table list: what
// the server accepts re-encodes to the same bytes, names in order and
// repeated ones kept (the node's executor refuses those, not the codec),
// and the count is bounded by the payload.
func checkTablesRoundTrip(t *testing.T, payload []byte) {
	tc, body, err := SplitTraceContext(payload)
	if err != nil {
		return
	}
	sql, args, tables, err := DecodeQueryTables(body)
	if err != nil {
		return
	}
	if len(tables) > len(body)/4 {
		t.Fatalf("%d tables decoded from %d bytes", len(tables), len(body))
	}
	again := AppendTraceContext(EncodeQueryTables(sql, args, tables), tc)
	if !bytes.Equal(again, payload) {
		t.Fatalf("statement %q over %q re-encodes as % x, decoded from % x", sql, tables, again, payload)
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
	good := bytes.Clone(*enc.Payload())
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
		// A successfully decoded batch re-encodes to the same bytes: the
		// string views sit at the offsets the encoder wrote them to.
		var enc BatchEncoder
		for _, row := range rows {
			enc.Append(row)
		}
		if again := *enc.Payload(); !bytes.Equal(again, data) {
			t.Fatalf("%d rows re-encode as % x, decoded from % x", len(rows), again, data)
		}
	})
}

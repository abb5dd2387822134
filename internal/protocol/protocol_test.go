package protocol

import (
	"bufio"
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"shardingsphere/internal/sqltypes"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteFrame(w, FrameQuery, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(w, FrameEOF, nil); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r := bufio.NewReader(&buf)
	typ, payload, err := ReadFrame(r)
	if err != nil || typ != FrameQuery || string(payload) != "hello" {
		t.Fatalf("frame 1: %v %v %q", typ, err, payload)
	}
	typ, payload, err = ReadFrame(r)
	if err != nil || typ != FrameEOF || len(payload) != 0 {
		t.Fatalf("frame 2: %v %v %q", typ, err, payload)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteFrame(w, FrameRowBatch, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized write: %v", err)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	args := []sqltypes.Value{
		sqltypes.NewInt(-42),
		sqltypes.NewFloat(3.14),
		sqltypes.NewString("it's"),
		sqltypes.Null,
		sqltypes.NewBool(true),
	}
	payload := EncodeQuery("SELECT * FROM t WHERE a = ?", args)
	sql, got, err := DecodeQuery(payload)
	if err != nil {
		t.Fatal(err)
	}
	if sql != "SELECT * FROM t WHERE a = ?" || len(got) != 5 {
		t.Fatalf("decode: %q %v", sql, got)
	}
	for i := range args {
		if got[i].Kind != args[i].Kind {
			t.Fatalf("arg %d kind: %v vs %v", i, got[i].Kind, args[i].Kind)
		}
	}
	if got[0].I != -42 || got[1].F != 3.14 || got[2].S != "it's" || !got[3].IsNull() || !got[4].Bool() {
		t.Fatalf("args: %v", got)
	}
}

func TestOKErrorHeaderRoundTrip(t *testing.T) {
	a, l, err := DecodeOK(EncodeOK(7, 99))
	if err != nil || a != 7 || l != 99 {
		t.Fatalf("ok: %d %d %v", a, l, err)
	}
	msg, err := DecodeError(EncodeError("boom"))
	if err != nil || msg != "boom" {
		t.Fatalf("error: %q %v", msg, err)
	}
	cols, err := DecodeHeader(EncodeHeader([]string{"a", "b"}))
	if err != nil || len(cols) != 2 || cols[1] != "b" {
		t.Fatalf("header: %v %v", cols, err)
	}
}

func TestRowRoundTripProperty(t *testing.T) {
	f := func(ints []int64, strs []string) bool {
		row := sqltypes.Row{}
		for _, v := range ints {
			row = append(row, sqltypes.NewInt(v))
		}
		for _, s := range strs {
			row = append(row, sqltypes.NewString(s))
		}
		row = append(row, sqltypes.Null)
		var enc BatchEncoder
		enc.Append(row)
		rows, err := DecodeRowBatch(*enc.Payload(), nil)
		if err != nil || len(rows) != 1 || len(rows[0]) != len(row) {
			return false
		}
		got := rows[0]
		for i := range row {
			if got[i].Kind != row[i].Kind || got[i].I != row[i].I || got[i].S != row[i].S {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedPayloads(t *testing.T) {
	full := EncodeQuery("SELECT 1", []sqltypes.Value{sqltypes.NewString("abc")})
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := DecodeQuery(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeRowBatch([]byte{0, 0}, nil); err == nil {
		t.Fatal("short row batch accepted")
	}
	if _, _, err := DecodeOK([]byte{1}); err == nil {
		t.Fatal("short ok accepted")
	}
}

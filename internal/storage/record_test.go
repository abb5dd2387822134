package storage

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"shardingsphere/internal/sqltypes"
)

// sameValues reports the first column where got is not exactly want: Kind,
// I, F's bits and S.
func sameValues(got, want sqltypes.Row) (int, bool) {
	if len(got) != len(want) {
		return -1, false
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Kind != w.Kind || g.I != w.I || math.Float64bits(g.F) != math.Float64bits(w.F) || g.S != w.S {
			return i, false
		}
	}
	return 0, true
}

// roundTrip encodes row, decodes it after a prefix a caller's buffer
// already holds, and reads each column alone.
func roundTrip(t *testing.T, row sqltypes.Row) {
	t.Helper()
	rec := encode(row)
	prefix := sqltypes.Row{sqltypes.NewString("kept")}
	got := decode(rec, len(row), prefix)
	if got[0].S != "kept" {
		t.Fatalf("decode overwrote the buffer's values: %v", got)
	}
	if i, ok := sameValues(got[1:], row); !ok {
		t.Fatalf("decode(encode(%v)) = %v: column %d differs", row, got[1:], i)
	}
	for c := range row {
		if i, ok := sameValues(sqltypes.Row{column(rec, len(row), c)}, row[c:c+1]); !ok {
			t.Fatalf("column %d of %v reads %v (%d)", c, row, column(rec, len(row), c), i)
		}
	}
}

// TestRecordRoundTrip: a record gives back exactly the row it was made of,
// whatever kinds the row holds.
func TestRecordRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	long := strings.Repeat("0123456789abcdef", 1<<12+3) // past 64 KB
	for _, row := range []sqltypes.Row{
		{sqltypes.NewInt(1)},
		{sqltypes.Null},
		{sqltypes.NewString("")},
		{sqltypes.NewInt(math.MinInt64), sqltypes.NewInt(math.MaxInt64), sqltypes.NewInt(0), sqltypes.NewInt(-1)},
		{sqltypes.NewBool(true), sqltypes.NewBool(false), sqltypes.Null},
		{sqltypes.NewFloat(math.Copysign(0, -1)), sqltypes.NewFloat(nan), sqltypes.NewFloat(math.Inf(1)),
			sqltypes.NewFloat(math.Inf(-1)), sqltypes.NewFloat(math.SmallestNonzeroFloat64), sqltypes.NewFloat(0.1)},
		{sqltypes.NewString("a\x00b\x00"), sqltypes.NewString(""), sqltypes.NewString("héllo"), sqltypes.NewString(long)},
		{sqltypes.NewInt(7), sqltypes.NewString(long), sqltypes.Null, sqltypes.NewFloat(2.5), sqltypes.NewString("x"), sqltypes.NewBool(true)},
	} {
		roundTrip(t, row)
	}
}

// TestRecordSize: a record is a kind byte and a lane per column and then
// its strings' bytes; an sbtest row's is 214 bytes.
func TestRecordSize(t *testing.T) {
	row := sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewInt(2),
		sqltypes.NewString(strings.Repeat("c", 119)), sqltypes.NewString(strings.Repeat("p", 59))}
	if n := len(encode(row)); n != 214 {
		t.Errorf("an sbtest record is %d bytes, want 214", n)
	}
}

// FuzzRecord holds TestRecordRoundTrip's property over arbitrary rows. The
// input is read as columns: a kind byte, then 8 bytes of INT, BOOLEAN or
// FLOAT lane, or for a VARCHAR a length byte and that many bytes; NULL has
// no payload.
func FuzzRecord(f *testing.F) {
	f.Add([]byte{byte(sqltypes.KindInt), 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{byte(sqltypes.KindString), 3, 'a', 0, 'b', byte(sqltypes.KindNull), byte(sqltypes.KindString), 0})
	f.Add([]byte{byte(sqltypes.KindFloat), 1, 0, 0, 0, 0, 0, 0xf8, 0x7f, byte(sqltypes.KindBool), 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		var row sqltypes.Row
		for len(in) > 0 {
			k := sqltypes.Kind(in[0] % 5)
			in = in[1:]
			var lane uint64
			if k == sqltypes.KindInt || k == sqltypes.KindBool || k == sqltypes.KindFloat {
				var b [8]byte
				in = in[copy(b[:], in):]
				lane = binary.LittleEndian.Uint64(b[:])
			}
			switch k {
			case sqltypes.KindNull:
				row = append(row, sqltypes.Null)
			case sqltypes.KindInt, sqltypes.KindBool:
				row = append(row, sqltypes.Value{Kind: k, I: int64(lane)})
			case sqltypes.KindFloat:
				row = append(row, sqltypes.NewFloat(math.Float64frombits(lane)))
			case sqltypes.KindString:
				n := 0
				if len(in) > 0 {
					n, in = min(int(in[0]), len(in)-1), in[1:]
				}
				row = append(row, sqltypes.NewString(string(in[:n])))
				in = in[n:]
			}
		}
		if len(row) > 0 {
			roundTrip(t, row)
		}
	})
}

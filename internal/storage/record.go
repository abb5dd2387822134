package storage

import (
	"encoding/binary"
	"math"
	"slices"
	"unsafe"

	"shardingsphere/internal/sqltypes"
)

// A record is one stored version of a row of n columns, an immutable
// string: n kind bytes, then n 8-byte little-endian lanes, then a tail
// holding the bytes of the row's strings. An INT or BOOLEAN lane holds the
// integer, a FLOAT lane its math.Float64bits, a VARCHAR lane the string's
// offset in the tail (low 32 bits) and its length (high 32 bits), a NULL
// lane 0. Each value keeps its own kind, so a record gives back exactly the
// row it was made from. A record holds no pointer, so the collector never
// scans one, and a decoded string is a substring of it: decoding copies no
// string. The empty string is no record (a row has at least one column).

// encode returns row as a record, in one allocation.
func encode(row sqltypes.Row) string {
	n := len(row)
	size := 9 * n
	for i := range row {
		if row[i].Kind == sqltypes.KindString {
			size += len(row[i].S)
		}
	}
	b := make([]byte, 9*n, size)
	for i := range row {
		v := &row[i]
		var lane uint64
		switch v.Kind {
		case sqltypes.KindInt, sqltypes.KindBool:
			lane = uint64(v.I)
		case sqltypes.KindFloat:
			lane = math.Float64bits(v.F)
		case sqltypes.KindString:
			lane = uint64(len(b)-9*n) | uint64(len(v.S))<<32
			b = append(b, v.S...)
		}
		b[i] = byte(v.Kind)
		binary.LittleEndian.PutUint64(b[n+8*i:], lane)
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// column returns column c of the n-column record rec.
func column(rec string, n, c int) sqltypes.Value {
	at := n + 8*c
	lane := uint64(rec[at]) | uint64(rec[at+1])<<8 | uint64(rec[at+2])<<16 | uint64(rec[at+3])<<24 |
		uint64(rec[at+4])<<32 | uint64(rec[at+5])<<40 | uint64(rec[at+6])<<48 | uint64(rec[at+7])<<56
	switch k := sqltypes.Kind(rec[c]); k {
	case sqltypes.KindInt, sqltypes.KindBool:
		return sqltypes.Value{Kind: k, I: int64(lane)}
	case sqltypes.KindFloat:
		return sqltypes.Value{Kind: k, F: math.Float64frombits(lane)}
	case sqltypes.KindString:
		off := 9*n + int(uint32(lane))
		return sqltypes.Value{Kind: k, S: rec[off : off+int(lane>>32)]}
	}
	return sqltypes.Null
}

// decode appends the n values of rec to dst.
func decode(rec string, n int, dst sqltypes.Row) sqltypes.Row {
	dst = slices.Grow(dst, n)
	for c := range n {
		dst = append(dst, column(rec, n, c))
	}
	return dst
}

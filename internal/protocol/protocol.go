// Package protocol defines the wire protocol spoken between clients and
// the proxy ("ShardingSphere-Proxy", paper Section VII-A), and between the
// kernel and networked data nodes (cmd/datanode). It is a compact,
// length-prefixed binary protocol playing the role MySQL's and
// PostgreSQL's wire protocols play for the real system: the performance
// difference between the embedded driver and the proxy in the paper's
// Tables III/IV is exactly the cost of this extra hop.
//
// Frame layout: 4-byte big-endian payload length, 1 type byte, then —
// on every frame after the Hello/HelloAck handshake — a 4-byte stream ID
// (protocol2.go), then the payload.
package protocol

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"shardingsphere/internal/sqltypes"
)

// Frame types.
const (
	// Client → server.
	FrameQuery byte = 0x01 // SQL + bind args + trace trailer; server replies rows or OK
	FramePing  byte = 0x02
	FrameQuit  byte = 0x03

	// A FrameQuery plus a table list; its FrameEOF leads with each table's
	// row count. Not trailing bytes on a FrameQuery, whose decoder ignores
	// them: a node that predates the type answers "unknown frame".
	FrameQueryTables byte = 0x0b

	// Server → client.
	FrameOK     byte = 0x10 // affected, lastInsertID
	FrameError  byte = 0x11 // message
	FrameHeader byte = 0x12 // column names
	// 0x13 is reserved: it was protocol v1's one-row-per-frame FrameRow.
	FrameEOF  byte = 0x14 // end of rows
	FramePong byte = 0x15
)

// MaxFrame bounds a single frame (16 MiB, as MySQL's default packet cap).
const MaxFrame = 16 << 20

// ErrFrameTooLarge reports an oversized frame.
var ErrFrameTooLarge = errors.New("protocol: frame exceeds maximum size")

// WriteFrame writes one frame.
func WriteFrame(w *bufio.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return nil
}

// ReadFrame reads one frame, rejecting payloads above MaxFrame. Use
// ReadFrameLimit to enforce a tighter, caller-configured bound.
func ReadFrame(r *bufio.Reader) (byte, []byte, error) {
	return ReadFrameLimit(r, MaxFrame)
}

// --- payload encoding ---

// writer builds payloads.
type writer struct {
	buf []byte
}

func (w *writer) u32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	w.buf = append(w.buf, b[:]...)
}

func (w *writer) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	w.buf = append(w.buf, b[:]...)
}

func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// value encodes one Value: 1 kind byte + payload.
func (w *writer) value(v sqltypes.Value) {
	w.buf = append(w.buf, byte(v.Kind))
	switch v.Kind {
	case sqltypes.KindNull:
	case sqltypes.KindInt, sqltypes.KindBool:
		w.u64(uint64(v.I))
	case sqltypes.KindFloat:
		w.u64(math.Float64bits(v.F))
	case sqltypes.KindString:
		w.str(v.S)
	}
}

// reader parses payloads.
type reader struct {
	buf   []byte
	pos   int
	views bool // strings view buf instead of copying it (DecodeRowBatch)
}

var errShortPayload = errors.New("protocol: truncated payload")

func (r *reader) u32() (uint32, error) {
	if r.pos+4 > len(r.buf) {
		return 0, errShortPayload
	}
	v := binary.BigEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.pos+8 > len(r.buf) {
		return 0, errShortPayload
	}
	v := binary.BigEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v, nil
}

func (r *reader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if r.pos+int(n) > len(r.buf) {
		return "", errShortPayload
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	if r.views {
		return frameString(b), nil
	}
	return string(b), nil
}

func (r *reader) value() (sqltypes.Value, error) {
	if r.pos >= len(r.buf) {
		return sqltypes.Null, errShortPayload
	}
	kind := sqltypes.Kind(r.buf[r.pos])
	r.pos++
	switch kind {
	case sqltypes.KindNull:
		return sqltypes.Null, nil
	case sqltypes.KindInt:
		v, err := r.u64()
		return sqltypes.NewInt(int64(v)), err
	case sqltypes.KindBool:
		v, err := r.u64()
		if err == nil && v > 1 {
			err = fmt.Errorf("protocol: bool value %d", v)
		}
		return sqltypes.NewBool(v != 0), err
	case sqltypes.KindFloat:
		v, err := r.u64()
		return sqltypes.NewFloat(math.Float64frombits(v)), err
	case sqltypes.KindString:
		s, err := r.str()
		return sqltypes.NewString(s), err
	default:
		return sqltypes.Null, fmt.Errorf("protocol: unknown value kind %d", kind)
	}
}

// --- message constructors/parsers ---

// EncodeQuery builds a FrameQuery payload.
func EncodeQuery(sql string, args []sqltypes.Value) []byte {
	w := &writer{}
	w.str(sql)
	w.u32(uint32(len(args)))
	for _, a := range args {
		w.value(a)
	}
	return w.buf
}

// DecodeQuery parses a FrameQuery payload. Unlike a row batch's, its
// strings are copies: a data node keeps argument values in its tables,
// and a stored value must not pin the frame it arrived in.
func DecodeQuery(payload []byte) (string, []sqltypes.Value, error) {
	r := &reader{buf: payload}
	return r.query()
}

func (r *reader) query() (string, []sqltypes.Value, error) {
	sql, err := r.str()
	if err != nil {
		return "", nil, err
	}
	n, err := r.u32()
	if err != nil {
		return "", nil, err
	}
	if n > 65535 {
		return "", nil, fmt.Errorf("protocol: %d bind args", n)
	}
	args := make([]sqltypes.Value, n)
	for i := range args {
		if args[i], err = r.value(); err != nil {
			return "", nil, err
		}
	}
	return sql, args, nil
}

// EncodeQueryTables builds a FrameQueryTables payload: a FrameQuery
// payload, then the table list, a count and each name.
func EncodeQueryTables(sql string, args []sqltypes.Value, tables []string) []byte {
	w := &writer{buf: EncodeQuery(sql, args)}
	w.u32(uint32(len(tables)))
	for _, t := range tables {
		w.str(t)
	}
	return w.buf
}

// DecodeQueryTables parses a FrameQueryTables payload, all of it; names
// come back as sent, repeated ones too (the node's executor refuses them).
func DecodeQueryTables(payload []byte) (sql string, args []sqltypes.Value, tables []string, err error) {
	r := &reader{buf: payload}
	n := uint32(0)
	if sql, args, err = r.query(); err == nil {
		n, err = r.u32()
	}
	if err == nil && int(n) > (len(payload)-r.pos)/4 { // a name costs at least its length
		err = fmt.Errorf("protocol: %d tables in %d bytes", n, len(payload)-r.pos)
	}
	for i := uint32(0); i < n && err == nil; i++ {
		var t string
		t, err = r.str()
		tables = append(tables, t)
	}
	if err == nil && r.pos != len(payload) {
		err = fmt.Errorf("protocol: %d bytes after a table list", len(payload)-r.pos)
	}
	return sql, args, tables, err
}

// AppendTableRows appends a table-list statement's per-table row counts to
// its FrameEOF payload, ahead of the span block.
func AppendTableRows(payload []byte, counts []int) []byte {
	w := &writer{buf: payload}
	w.u32(uint32(len(counts)))
	for _, c := range counts {
		w.u32(uint32(c))
	}
	return w.buf
}

// SplitTableRows parses the counts a table-list statement's FrameEOF
// payload starts with, and returns the bytes after them.
func SplitTableRows(payload []byte) ([]int, []byte, error) {
	r := &reader{buf: payload}
	n, err := r.u32()
	if err != nil || int(n) > (len(payload)-r.pos)/4 {
		return nil, nil, fmt.Errorf("protocol: bad table row counts (%d in %d bytes)", n, len(payload))
	}
	counts := make([]int, n)
	for i := range counts {
		c, _ := r.u32()
		counts[i] = int(c)
	}
	return counts, payload[r.pos:], nil
}

// EncodeOK builds a FrameOK payload.
func EncodeOK(affected, lastInsertID int64) []byte {
	w := &writer{}
	w.u64(uint64(affected))
	w.u64(uint64(lastInsertID))
	return w.buf
}

// DecodeOK parses a FrameOK payload.
func DecodeOK(payload []byte) (affected, lastInsertID int64, err error) {
	r := &reader{buf: payload}
	a, err := r.u64()
	if err != nil {
		return 0, 0, err
	}
	l, err := r.u64()
	if err != nil {
		return 0, 0, err
	}
	return int64(a), int64(l), nil
}

// EncodeError builds a FrameError payload.
func EncodeError(msg string) []byte {
	w := &writer{}
	w.str(msg)
	return w.buf
}

// DecodeError parses a FrameError payload.
func DecodeError(payload []byte) (string, error) {
	r := &reader{buf: payload}
	return r.str()
}

// EncodeHeader builds a FrameHeader payload from column names.
func EncodeHeader(cols []string) []byte {
	w := &writer{}
	w.u32(uint32(len(cols)))
	for _, c := range cols {
		w.str(c)
	}
	return w.buf
}

// DecodeHeader parses a FrameHeader payload.
func DecodeHeader(payload []byte) ([]string, error) {
	r := &reader{buf: payload}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n > 4096 {
		return nil, fmt.Errorf("protocol: %d columns", n)
	}
	cols := make([]string, n)
	for i := range cols {
		if cols[i], err = r.str(); err != nil {
			return nil, err
		}
	}
	return cols, nil
}

// Protocol v2: stream-multiplexed framing.
//
// A 4-byte stream ID after the type byte lets one TCP connection carry
// many logical conversations concurrently:
//
//	handshake: | len u32 | type u8 | payload |
//	after it:  | len u32 | type u8 | stream u32 | payload |
//
// The handshake is the only traffic in the short framing (protocol v1's,
// which is otherwise retired): the client sends FrameHello (version, max
// frame size) as its first frame; the server replies FrameHelloAck and
// both sides switch to v2 framing on the same socket, or it replies
// FrameError — an accept-time rejection, or a peer that speaks another
// version — and the dial fails with that error.
//
// A statement crosses the wire one way: FrameQuery carries its text, its
// bind args and the trace-context trailer (obs.go), FrameQueryTables a table
// list besides (protocol.go). The server keeps no
// per-connection statement state; repeated texts are recognised by the
// backend's own cache (sqlexec's statement cache on a data node, the plan
// cache in the proxy), which is shared by every connection. A row set
// comes back as FrameHeader, FrameRowBatch frames (~16KB each, paced by
// the StreamWindow flow-control window) and FrameEOF.
package protocol

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"unsafe"

	"shardingsphere/internal/sqltypes"
)

// version is the protocol version exchanged in Hello/HelloAck; a peer
// must offer exactly it. It is 4 because flow credit became per
// statement: a version-3 client sends empty acks (a version-4 server
// drops them, so its long results would wedge), and a version-3 server
// counts credit per stream (a version-4 client's skipped last acks would
// stall its next statement). Version 2 ran statements through
// prepare/exec handles. Refused here by number, an older peer never gets
// to desynchronize on its first statement.
const version uint32 = 4

// v2-era frame types. Client → server types continue from 0x03,
// server → client types continue from 0x15. (0x08/0x18 are the
// metrics-federation frames in obs.go, 0x0b is FrameQueryTables in
// protocol.go; 0x05/0x06 were version 2's prepare/exec frames and stay
// unassigned.)
const (
	FrameHello        byte = 0x04 // version check; sent in handshake framing
	FrameStreamClose  byte = 0x07 // client abandons a stream mid-result
	FrameCursorCancel byte = 0x09 // stop streaming rows for one statement
	FrameBatchAck     byte = 0x0a // statement seq: one of its row batches taken (flow credit)

	FrameHelloAck byte = 0x16 // version + max frame size accepted
	FrameRowBatch byte = 0x17 // many rows per frame
)

// DefaultBatchBytes is the target payload size of one FrameRowBatch.
// Large enough to amortize framing and syscalls, small enough to keep
// per-stream memory bounded and interleave fairly on a shared socket.
const DefaultBatchBytes = 16 << 10

// StreamWindow is the per-statement row-batch flow-control window: the
// server keeps at most this many unacked FrameRowBatch frames of the
// statement it is streaming in flight. The client acks a batch
// (FrameBatchAck naming the statement) when the frame behind it turns out
// to be another batch; the terminal frame (FrameEOF/FrameError) stands in
// for the last batch's ack, so a result of one batch costs no ack at all.
// FrameCursorCancel stops an in-progress row stream early without
// abandoning the logical connection. The product StreamWindow ×
// DefaultBatchBytes (~64KB) is the working set a lazy cursor holds per
// source regardless of result size; the window is deliberately deeper
// than one batch so decode and network transfer overlap.
const StreamWindow = 4

// EncodeSeq builds a FrameCursorCancel or FrameBatchAck payload: the
// 1-based per-stream sequence number of the statement whose row stream is
// meant. The server matches it against the statement it is currently
// streaming — a stale one (statement already finished) is a no-op, so a
// cancel racing the natural EOF can never clip the next statement's
// result, nor a late ack widen its window.
func EncodeSeq(seq uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], seq)
	return b[:]
}

// DecodeSeq parses a FrameCursorCancel or FrameBatchAck payload.
func DecodeSeq(payload []byte) (uint32, error) {
	if len(payload) != 4 {
		return 0, fmt.Errorf("protocol: statement-seq payload of %d bytes", len(payload))
	}
	return binary.BigEndian.Uint32(payload), nil
}

// FrameTooLargeError reports an oversized frame with the offending sizes.
// errors.Is(err, ErrFrameTooLarge) matches it.
type FrameTooLargeError struct {
	Size  uint32
	Limit uint32
}

func (e *FrameTooLargeError) Error() string {
	return fmt.Sprintf("protocol: frame of %d bytes exceeds limit %d", e.Size, e.Limit)
}

func (e *FrameTooLargeError) Unwrap() error { return ErrFrameTooLarge }

// ReadFrameLimit reads one handshake-framed frame, rejecting payloads
// above max before allocating. ReadFrame is ReadFrameLimit with the
// protocol-wide MaxFrame.
func ReadFrameLimit(r *bufio.Reader, max uint32) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > max {
		return 0, nil, &FrameTooLargeError{Size: n, Limit: max}
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[4], payload, nil
}

// WriteFrameV2 writes one v2 frame carrying a stream ID.
func WriteFrameV2(w *bufio.Writer, typ byte, stream uint32, payload []byte) error {
	if len(payload) > MaxFrame {
		return &FrameTooLargeError{Size: uint32(len(payload)), Limit: MaxFrame}
	}
	// The header is built in the writer's own free space: a local array
	// would escape through Write and cost an allocation per frame.
	hdr := binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(len(payload)))
	hdr = append(hdr, typ)
	hdr = binary.BigEndian.AppendUint32(hdr, stream)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrameV2 reads one v2 frame, rejecting payloads above max before
// allocating.
func ReadFrameV2(r *bufio.Reader, max uint32) (typ byte, stream uint32, payload []byte, err error) {
	var hdr [9]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > max {
		return 0, 0, nil, &FrameTooLargeError{Size: n, Limit: max}
	}
	stream = binary.BigEndian.Uint32(hdr[5:])
	payload = make([]byte, n)
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, err
	}
	return hdr[4], stream, payload, nil
}

// EncodeHello builds a FrameHello / FrameHelloAck payload: this build's
// protocol version and the sender's max frame size.
func EncodeHello(maxFrame uint32) []byte {
	w := &writer{}
	w.u32(version)
	w.u32(maxFrame)
	return w.buf
}

// DecodeHello parses a FrameHello / FrameHelloAck payload. A peer that
// offers any other version is an error naming both versions.
func DecodeHello(payload []byte) (maxFrame uint32, err error) {
	r := &reader{buf: payload}
	v, err := r.u32()
	if err != nil {
		return 0, err
	}
	if v != version {
		return 0, fmt.Errorf("protocol: peer speaks version %d, this build speaks version %d", v, version)
	}
	return r.u32()
}

// batchPool holds FrameRowBatch buffers the socket writers handed back
// (ReleaseBatch); an encoder's next batch starts in one of them. It
// stores the pointer each buffer travels in, so a Put allocates nothing.
var batchPool sync.Pool

// maxPooledBatch drops a buffer one oversized row grew past it instead of
// pooling it: a batch normally ends one row after DefaultBatchBytes.
const maxPooledBatch = 2 * DefaultBatchBytes

// BatchEncoder accumulates rows into a FrameRowBatch payload. Callers
// append rows until Size crosses their flush threshold (typically
// DefaultBatchBytes) and take the payload with Payload; Reset drops rows
// that will not be sent.
type BatchEncoder struct {
	w    writer
	buf  *[]byte // the pooled buffer w.buf lives in; nil while empty
	rows int
}

// Append adds one row to the batch. A batch's first row takes its buffer
// from the pool.
func (b *BatchEncoder) Append(row sqltypes.Row) {
	if b.rows == 0 {
		if b.buf, _ = batchPool.Get().(*[]byte); b.buf == nil {
			b.buf = new([]byte)
			*b.buf = make([]byte, 0, DefaultBatchBytes)
		}
		// Reserve the row-count prefix.
		b.w.buf = (*b.buf)[:0]
		b.w.u32(0)
	}
	b.rows++
	b.w.u32(uint32(len(row)))
	for _, v := range row {
		b.w.value(v)
	}
}

// Rows reports the number of buffered rows.
func (b *BatchEncoder) Rows() int { return b.rows }

// Size reports the current payload size in bytes.
func (b *BatchEncoder) Size() int { return len(b.w.buf) }

// Payload finalizes the batch and hands over the pooled buffer it was
// built in, leaving the encoder empty. The payload is the caller's until
// ReleaseBatch; one never released (dead socket, cancel) is the
// collector's.
func (b *BatchEncoder) Payload() *[]byte {
	binary.BigEndian.PutUint32(b.w.buf[:4], uint32(b.rows))
	p := b.buf
	*p = b.w.buf
	b.Reset()
	return p
}

// Reset empties the encoder, dropping any rows not yet taken.
func (b *BatchEncoder) Reset() {
	b.w.buf, b.buf, b.rows = nil, nil, 0
}

// ReleaseBatch gives a payload from Payload back to the pool the next
// Append takes from. Call it once, after WriteFrameV2 has copied the
// payload into its bufio.Writer (or written it through), never for the
// same payload again.
func ReleaseBatch(p *[]byte) {
	if cap(*p) <= maxPooledBatch {
		batchPool.Put(p)
	}
}

// DecodeRowBatch parses a FrameRowBatch payload, appending the decoded
// rows to dst (which may be nil). dst grows at most once, by the rows the
// payload declares, so a one-batch result is one exact allocation. A
// batch's rows are carved from one value array sized by the first row's
// width (rows of other widths merely grow it), each at full capacity so
// an append never writes into a neighbour.
//
// String values are views of payload, not copies, so payload must never
// be written after this call: a payload from ReadFrameV2 is allocated for
// its frame and never written again, and a row pins at most that frame
// (DefaultBatchBytes plus one row). A payload is consumed exactly and a
// bool is 0 or 1, so whatever decodes re-encodes to the same bytes.
func DecodeRowBatch(payload []byte, dst []sqltypes.Row) ([]sqltypes.Row, error) {
	r := &reader{buf: payload, views: true}
	nrows, err := r.u32()
	if err != nil {
		return dst, err
	}
	// A row costs at least 4 bytes (its column count), so nrows is
	// bounded by the payload itself; reject inconsistent counts before
	// allocating.
	if int(nrows) > len(payload)/4 {
		return dst, fmt.Errorf("protocol: %d rows in %d-byte batch", nrows, len(payload))
	}
	if need := len(dst) + int(nrows); need > cap(dst) {
		grown := make([]sqltypes.Row, len(dst), max(need, 2*cap(dst)))
		copy(grown, dst)
		dst = grown
	}
	var vals []sqltypes.Value
	for i := uint32(0); i < nrows; i++ {
		ncols, err := r.u32()
		if err != nil {
			return dst, err
		}
		// A value costs at least 1 byte (its kind), so the count is
		// bounded by what is left of the payload; check before allocating.
		if ncols > 4096 || int(ncols) > len(payload)-r.pos {
			return dst, fmt.Errorf("protocol: %d row values", ncols)
		}
		if i == 0 {
			vals = make([]sqltypes.Value, 0, min(uint64(nrows)*uint64(ncols), uint64(len(payload)-r.pos)))
		}
		at := len(vals)
		for j := uint32(0); j < ncols; j++ {
			v, err := r.value()
			if err != nil {
				return dst, err
			}
			vals = append(vals, v)
		}
		dst = append(dst, vals[at:len(vals):len(vals)])
	}
	if r.pos != len(payload) {
		return dst, fmt.Errorf("protocol: %d bytes after the last row of a batch", len(payload)-r.pos)
	}
	return dst, nil
}

// frameString is DecodeRowBatch's string value: a view of the frame's
// bytes (see DecodeRowBatch for why that is safe).
func frameString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

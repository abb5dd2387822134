package proxy

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"
)

// refusedWith sends one opening frame and requires the reply to be exactly
// one error frame carrying text, then EOF, with nothing executed and no v2
// connection counted. The request and the expected reply are spelled out
// rather than built with the protocol package, so a change to either
// side's framing shows here.
func refusedWith(t *testing.T, request []byte, text string) {
	t.Helper()
	addr, srv := startNodeServer(t, "refused")
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(request); err != nil {
		t.Fatal(err)
	}

	// FrameError: | len=4+n | type=0x11 | strlen=n | text |
	want := binary.BigEndian.AppendUint32(nil, uint32(4+len(text)))
	want = append(want, 0x11)
	want = binary.BigEndian.AppendUint32(want, uint32(len(text)))
	want = append(want, text...)

	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(nc)
	if err != nil {
		t.Fatalf("want a clean EOF after the error frame, got %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("reply bytes:\n got %q\nwant %q", got, want)
	}
	if n := srv.Metrics()["statements"]; n != 0 {
		t.Fatalf("the refused peer's statement was executed (%d statements)", n)
	}
	if n := srv.Metrics()["v2_connections"]; n != 0 {
		t.Fatalf("refused peer counted as a v2 connection (%d)", n)
	}
}

// TestV1StatementGetsUpgradeError freezes the bytes of the one exchange
// protocol v1 still gets: a statement frame sent without a Hello is
// answered by exactly one error frame naming the remedy, then EOF.
func TestV1StatementGetsUpgradeError(t *testing.T) {
	// v1 FrameQuery: | len=16 | type=0x01 | strlen=8 "SELECT 1" | nargs=0 |
	query := []byte{0, 0, 0, 16, 0x01, 0, 0, 0, 8}
	query = append(query, "SELECT 1"...)
	query = append(query, 0, 0, 0, 0)
	refusedWith(t, query, "proxy: protocol v1 is no longer served; upgrade the client")
}

// TestVersion2HelloRefused freezes what a peer built before version 4
// gets: its Hello is answered by one error frame naming both versions,
// then EOF. A version-2 peer (with the capability word such builds
// offered, or without) would send prepare/exec frames and statements
// without the trace trailer; a version-3 peer sends empty row-batch acks
// and counts credit per stream. Neither may get as far as a statement.
func TestVersion2HelloRefused(t *testing.T) {
	for _, tc := range []struct {
		hello []byte
		text  string
	}{
		// Hello: | len | type=0x04 | version | maxFrame=16MiB | [caps=0b111] |
		{[]byte{0, 0, 0, 8, 0x04, 0, 0, 0, 2, 1, 0, 0, 0}, "proxy: protocol: peer speaks version 2, this build speaks version 4"},
		{[]byte{0, 0, 0, 12, 0x04, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0, 7}, "proxy: protocol: peer speaks version 2, this build speaks version 4"},
		{[]byte{0, 0, 0, 8, 0x04, 0, 0, 0, 3, 1, 0, 0, 0}, "proxy: protocol: peer speaks version 3, this build speaks version 4"},
	} {
		refusedWith(t, tc.hello, tc.text)
	}
}

// TestOversizedFirstFrameClosed: before the handshake the only legal
// frame is a Hello of a dozen bytes, so a header announcing more than the
// first-frame cap is refused on the header alone — the server must not
// allocate the announced size and wait for it. The payload is never
// sent; the socket has to close anyway, with no idle timeout configured.
func TestOversizedFirstFrameClosed(t *testing.T) {
	addr, srv := startNodeServer(t, "big-hello")
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// A Hello header claiming the protocol-wide maximum (16 MiB).
	if _, err := nc.Write([]byte{0x01, 0x00, 0x00, 0x00, 0x04}); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := nc.Read(make([]byte, 1)); err == nil || n != 0 {
		t.Fatalf("oversized first frame answered (%d bytes, err %v)", n, err)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server is still waiting for the oversized payload")
	}
	waitCond(t, "conn released", func() bool { return srv.Metrics()["connections_active"] == 0 })
}

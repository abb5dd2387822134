package proxy

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"shardingsphere/internal/core"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sqlexec"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/storage"
	"shardingsphere/pkg/client"
)

// liveHeap is the heap still reachable after a collection. Client and
// server share the test process, so it covers both ends of the wire.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestOneShotTextsLeaveNothingBehind: a connection that sends 20,000
// texts it never repeats — inlined literals, XA verbs carrying their xid —
// must not grow either end of the wire. Neither the client nor the server
// keeps anything per text per connection; what a backend remembers of a
// text is its own, bounded, cross-connection cache.
func TestOneShotTextsLeaveNothingBehind(t *testing.T) {
	const (
		texts    = 20000
		warm     = 1000
		maxGrown = 2 << 20
	)
	xaVerbs := []string{"XA START 'x%d'", "XA END 'x%d'", "XA PREPARE 'x%d'", "XA COMMIT 'x%d'"}
	for _, c := range []struct {
		name    string
		backend Backend
		text    func(i int) string
	}{
		{
			name:    "node",
			backend: &NodeBackend{Processor: sqlexec.NewProcessor(storage.NewEngine("oneshot"))},
			// Alternating: a literal SELECT, then one verb of a transaction
			// branch's life, four consecutive verbs sharing an xid.
			text: func(i int) string {
				if i%2 == 0 {
					return fmt.Sprintf("SELECT 1 + %d", i)
				}
				return fmt.Sprintf(xaVerbs[i/2%4], i/8)
			},
		},
		{
			name: "kernel",
			backend: func() Backend {
				k, err := core.New(core.Config{Sources: map[string]*resource.DataSource{
					"ds0": resource.NewEmbedded(storage.NewEngine("ds0"), nil),
				}})
				if err != nil {
					t.Fatal(err)
				}
				return &KernelBackend{Kernel: k}
			}(),
			text: func(i int) string { return fmt.Sprintf("SELECT 1 + %d", i) },
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := NewServer(c.backend)
			addr, err := srv.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			conn, err := client.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			ctx := context.Background()
			var base uint64
			for i := 0; i < texts; i++ {
				if i == warm {
					base = liveHeap()
				}
				if _, err := conn.Exec(ctx, c.text(i)); err != nil {
					t.Fatalf("%s: %v", c.text(i), err)
				}
			}
			if now := liveHeap(); now > base+maxGrown {
				t.Fatalf("live heap grew %d KB over %d one-shot texts on one connection",
					(now-base)>>10, texts-warm)
			}
		})
	}
}

// TestNodeAdmissionHoldsOverTheWire: the data node keeps a text from its
// third sight whichever connection each sight arrives on — a connection
// has no statement table of its own to parse into or answer from.
func TestNodeAdmissionHoldsOverTheWire(t *testing.T) {
	addr, _ := startNodeServer(t, "sights")
	ctx := context.Background()
	parses := func(sql string) uint64 {
		t.Helper()
		conn, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		before := sqlparser.ParseCount()
		if _, err := conn.Exec(ctx, sql); err != nil {
			t.Fatal(err)
		}
		return sqlparser.ParseCount() - before
	}
	const sql = "SELECT 40 + 2"
	for sight, want := range []uint64{1, 1, 1, 0, 0} {
		if got := parses(sql); got != want {
			t.Fatalf("sight %d of the text, on its own connection: %d parses, want %d", sight+1, got, want)
		}
	}
	// The same holds for sights on one connection: the second is a parse
	// too, not a handle lookup.
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const again = "SELECT 40 + 3"
	before := sqlparser.ParseCount()
	for i := 0; i < 4; i++ {
		if _, err := conn.Exec(ctx, again); err != nil {
			t.Fatal(err)
		}
	}
	if got := sqlparser.ParseCount() - before; got != 3 {
		t.Fatalf("four sights on one connection: %d parses, want 3", got)
	}
}

package proxy

import (
	"context"
	"errors"
	"testing"
	"time"

	"shardingsphere/internal/core"
	"shardingsphere/internal/governor"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sqlexec"
	"shardingsphere/internal/storage"
	"shardingsphere/pkg/client"
)

// TestDataNodeFailureDetectedAndBroken kills a data node under a kernel
// and checks the failure path end to end: statements error, the governor's
// health detection opens the breaker, the kernel's gate rejects fast, and
// a node restart at the same address heals the path (paper Section V-B).
func TestDataNodeFailureDetectedAndBroken(t *testing.T) {
	eng := storage.NewEngine("ds0")
	srv := NewServer(&NodeBackend{Processor: sqlexec.NewProcessor(eng)})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	sources := map[string]*resource.DataSource{
		"ds0": client.NewRemoteDataSource("ds0", addr, &resource.Options{
			AcquireTimeout: 500 * time.Millisecond,
		}),
	}
	defer sources["ds0"].Close()
	k, err := core.New(core.Config{Sources: sources})
	if err != nil {
		t.Fatal(err)
	}
	gov := k.Governor()
	gov.BreakThreshold = 2
	gov.CoolDown = 50 * time.Millisecond

	sess := k.NewSession()
	if _, err := sess.Exec("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}

	// Kill the node: in-flight and subsequent statements fail.
	srv.Close()
	if _, err := sess.Query("SELECT * FROM t"); err == nil {
		t.Fatal("dead node served a query")
	}
	// Health detection notices within BreakThreshold probes.
	gov.CheckOnce()
	gov.CheckOnce()
	if st := gov.BreakerStates()["ds0"]; st != governor.BreakerOpen {
		t.Fatalf("health detection missed the dead node: %s", st)
	}
	// The gate now rejects without dialing.
	if _, err := sess.Query("SELECT * FROM t"); !errors.Is(err, core.ErrSourceDown) {
		t.Fatalf("breaker did not trip: %v", err)
	}

	// Restart a node at the same address (fresh engine — a failover
	// replica in practice) and wait out the cool-down: traffic resumes.
	eng2 := storage.NewEngine("ds0")
	srv2 := NewServer(&NodeBackend{Processor: sqlexec.NewProcessor(eng2)})
	if _, err := srv2.Listen(addr); err != nil {
		t.Skipf("port reuse unavailable: %v", err)
	}
	go srv2.Serve()
	defer srv2.Close()
	time.Sleep(60 * time.Millisecond) // cool-down
	gov.CheckOnce()
	if st := gov.BreakerStates()["ds0"]; st != governor.BreakerClosed {
		t.Fatalf("recovered node still %s", st)
	}
	if _, err := sess.Exec("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatalf("traffic did not resume: %v", err)
	}
}

// TestClientSurvivesServerRestartPerConnection checks connection-level
// failure semantics: a dropped connection errors cleanly and is not
// returned to the pool.
func TestBrokenRemoteConnNotReused(t *testing.T) {
	eng := storage.NewEngine("n")
	srv := NewServer(&NodeBackend{Processor: sqlexec.NewProcessor(eng)})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ds := client.NewRemoteDataSource("n", addr, nil)
	defer ds.Close()
	conn, err := ds.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec(context.Background(), "CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	// Simulate a protocol failure: close the raw connection under the
	// pool's feet, mark it broken, release.
	conn.Conn.Close()
	conn.Broken = true
	conn.Release()

	// The pool hands out a fresh connection that works.
	conn2, err := ds.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Release()
	if _, err := conn2.Query(context.Background(), "SELECT COUNT(*) FROM t"); err != nil {
		t.Fatalf("fresh connection failed: %v", err)
	}
}

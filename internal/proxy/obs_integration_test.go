package proxy

import (
	"context"
	"testing"

	"shardingsphere/pkg/client"
)

// TestMetricsPullEndToEnd scrapes a node's snapshot through the data
// source hook and checks the always-on counters moved.
func TestMetricsPullEndToEnd(t *testing.T) {
	addr, _ := startNodeServer(t, "pull")
	ds := client.NewRemoteDataSource("pull", addr, nil)
	defer ds.Close()
	ctx := context.Background()
	pc, err := ds.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Exec(ctx, "CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Exec(ctx, "INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	pc.Release()

	snap, err := ds.MetricsPull(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("remote source returned no snapshot")
	}
	var statements int64
	for _, c := range snap.Counters {
		if c.Name == "node.statements" {
			statements = c.Value
		}
	}
	if statements < 2 {
		t.Fatalf("node.statements = %d, want >= 2 (snapshot %+v)", statements, snap)
	}
}

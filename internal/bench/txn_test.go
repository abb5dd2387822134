package bench_test

import (
	"fmt"
	"os"
	"testing"
	"time"

	"shardingsphere/internal/bench"
	"shardingsphere/internal/bench/tpcc"
	"shardingsphere/internal/transaction"
)

// txnDuration lets TXN_DURATION stretch the measured phases beyond
// the smoke default (TXN_DURATION=2s).
func txnDuration(def time.Duration) time.Duration {
	if v := os.Getenv("TXN_DURATION"); v != "" {
		if d, err := time.ParseDuration(v); err == nil {
			return d
		}
	}
	if testing.Short() {
		return def / 3
	}
	return def
}

// logSyncDelay models the fsync a real XA log pays per decision-point
// write: the serialized cost the group committer amortizes.
const logSyncDelay = time.Millisecond

// TestTxnThroughput drives the TPC-C Payment transaction,
// warehouse-sharded over eight sources, through the XA commit path
// (parallel 2PC + group commit + fast path) at 32 workers. The
// sequential baseline it was first measured against (3.25x cross-shard,
// CHANGES.md PR 8) was removed in PR 17.
//
//   - Cross-shard (every payment pays a remote warehouse's customer, two
//     branches): commits run 2PC and their log writes batch.
//   - Single-shard (every payment stays home): commits must take the
//     1PC fast path — the fastpath_commits counter is the proof that no
//     XA verbs or log writes happened.
func TestTxnThroughput(t *testing.T) {
	const workers = 32
	const warehouses = 8 // == sources: distinct warehouses, distinct shards
	dur := txnDuration(1500 * time.Millisecond)

	sources := make([]string, warehouses)
	for i := range sources {
		sources[i] = fmt.Sprintf("ds%d", i)
	}
	rules, err := tpcc.Rules(sources)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := bench.NewSSJ(bench.Topology{
		Sources: len(sources),
		MaxCon:  4,
		TxType:  transaction.XA,
		TxLog:   transaction.NewDurableLog(transaction.NewMemoryLog(), logSyncDelay),
	}.WithRules(rules))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	cfg := tpcc.Config{
		Warehouses:               warehouses,
		DistrictsPerWarehouse:    4,
		CustomersPerDistrict:     10,
		Items:                    20,
		InitialOrdersPerDistrict: 2,
	}
	if err := bench.PrepareOn(sys, func(c bench.Client) error {
		return tpcc.Prepare(c, cfg)
	}); err != nil {
		t.Fatal(err)
	}

	mgr := sys.Kernel.TxManager()
	newClient := func(int) (bench.Client, error) { return bench.NewKernelClient(sys.Kernel), nil }
	phase := func(name string, remotePct int, seed int64) (bench.Metrics, map[string]int64) {
		t.Helper()
		pcfg := cfg
		pcfg.RemotePaymentPct = remotePct
		before := mgr.Metrics()
		m, err := bench.Run(bench.Options{Workers: workers, Duration: dur, Seed: seed}, newClient, pcfg.Payment)
		if err != nil {
			t.Fatal(err)
		}
		after := mgr.Metrics()
		delta := map[string]int64{}
		for k, v := range after {
			delta[k] = v - before[k]
		}
		t.Logf("%-22s %s", name, m)
		// Hot-row contention can time out the odd lock under convoy; more
		// than a sliver of errors means the phase measured failures.
		if m.Count == 0 || float64(m.Errors) > 0.02*float64(m.Count) {
			t.Fatalf("%s: %d errors out of %d transactions", name, m.Errors, m.Count)
		}
		return m, delta
	}

	// Cross-shard: every payment spans the home and the remote warehouse's
	// shards — a genuine two-branch distributed commit.
	cross, dn := phase("cross-shard", 100, 22)
	if dn["xa_commits"] == 0 || dn["fastpath_commits"] != 0 {
		t.Fatalf("cross-shard counters: %v", dn)
	}
	if dn["group_batches"] == 0 || dn["group_batches"] >= dn["group_ops"] {
		t.Fatalf("group commit never batched: %v", dn)
	}

	// Single-shard: the same transaction shape with the remote leg off;
	// the commit path must recognize it and skip XA entirely.
	single, ds := phase("single-shard fastpath", 0, 24)
	if ds["fastpath_commits"] == 0 || ds["xa_commits"] != 0 {
		t.Fatalf("fast path not taken: %v", ds)
	}
	if ds["group_ops"] != 0 {
		t.Fatalf("fast path wrote log records: %v", ds)
	}

	t.Logf("group commit: %d ops in %d batches (max batch %d)", dn["group_ops"], dn["group_batches"], dn["group_max_batch"])

	// Atomicity across both phases: every committed payment wrote its
	// history row (the remote-shard leg of a cross-shard payment), none
	// ended in-doubt, and the XA log is empty.
	committed := cross.Count + single.Count
	c, _ := sys.NewClient(0)
	defer c.Close()
	hist, err := c.Query("SELECT COUNT(*) FROM bmsql_history")
	if err != nil {
		t.Fatal(err)
	}
	if hist[0][0].I != committed {
		t.Fatalf("history rows %d != committed payments %d: a commit half-applied", hist[0][0].I, committed)
	}
	if m := mgr.Metrics(); m["in_doubt"] != 0 {
		t.Fatalf("in-doubt transactions during benchmark: %v", m)
	}
}

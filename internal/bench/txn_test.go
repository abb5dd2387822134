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

// txnDuration lets `make bench-txn` stretch the measured phases beyond
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
// write. It is the serialized cost the group committer amortizes; the
// legacy path pays it twice per commit (write + retire), every
// transaction on its own.
const logSyncDelay = time.Millisecond

// TestTxnThroughput is the tentpole's acceptance benchmark: the TPC-C
// Payment transaction, warehouse-sharded over four sources, against one
// XA kernel whose commit path is toggled between the legacy sequential
// baseline and the concurrent path (parallel 2PC + group commit + fast
// path).
//
//   - Cross-shard (every payment pays a remote warehouse's customer, two
//     branches): the concurrent path must deliver >= 2x the baseline's
//     throughput at 32 workers.
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
	phase := func(name string, legacy bool, remotePct int, seed int64) (bench.Metrics, map[string]int64) {
		t.Helper()
		mgr.SetLegacyCommit(legacy)
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
	crossLegacy, dl := phase("cross-shard legacy", true, 100, 21)
	if dl["xa_commits"] == 0 || dl["fastpath_commits"] != 0 {
		t.Fatalf("legacy cross-shard counters: %v", dl)
	}
	crossNew, dn := phase("cross-shard concurrent", false, 100, 22)
	if dn["xa_commits"] == 0 {
		t.Fatalf("concurrent cross-shard counters: %v", dn)
	}
	if dn["group_batches"] == 0 || dn["group_batches"] >= dn["group_ops"] {
		t.Fatalf("group commit never batched: %v", dn)
	}

	// Single-shard: the same transaction shape with the remote leg off;
	// the concurrent path must recognize it and skip XA entirely.
	singleLegacy, _ := phase("single-shard legacy", true, 0, 23)
	singleNew, ds := phase("single-shard fastpath", false, 0, 24)
	if ds["fastpath_commits"] == 0 || ds["xa_commits"] != 0 {
		t.Fatalf("fast path not taken: %v", ds)
	}
	if ds["group_ops"] != 0 {
		t.Fatalf("fast path wrote log records: %v", ds)
	}

	crossGain := crossNew.TPS / crossLegacy.TPS
	singleGain := singleNew.TPS / singleLegacy.TPS
	t.Logf("cross-shard gain: %.2fx (legacy %.0f -> concurrent %.0f TPS)", crossGain, crossLegacy.TPS, crossNew.TPS)
	t.Logf("single-shard gain: %.2fx (legacy XA %.0f -> fastpath %.0f TPS)", singleGain, singleLegacy.TPS, singleNew.TPS)
	t.Logf("group commit: %d ops in %d batches (max batch %d)", dn["group_ops"], dn["group_batches"], dn["group_max_batch"])

	// The gains are wall-clock ratios: reported above against their
	// budgets (cross-shard >= 2x at 32 workers, fast path never slower
	// than full 2PC), claimed only through the benchmark (ROADMAP item 0).
	t.Logf("budgets, not asserted: cross-shard gain >= %.1fx, single-shard gain >= 1x", txnCrossGainGate)

	// Atomicity across all four phases: every committed payment wrote its
	// history row (the remote-shard leg of a cross-shard payment), none
	// ended in-doubt, and the XA log is empty.
	committed := crossLegacy.Count + crossNew.Count + singleLegacy.Count + singleNew.Count
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

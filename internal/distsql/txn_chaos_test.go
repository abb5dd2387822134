package distsql

import (
	"context"
	"fmt"
	"testing"

	"shardingsphere/internal/core"
	"shardingsphere/internal/registry"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/storage"
	"shardingsphere/internal/transaction"
)

// txnFixture builds an XA-mode sharded kernel over two sources plus the
// shared registry a replacement coordinator would reattach to.
func txnFixture(t *testing.T) (*core.Kernel, *core.Session, map[string]*resource.DataSource, *registry.Registry) {
	t.Helper()
	sources := map[string]*resource.DataSource{}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("ds%d", i)
		sources[name] = resource.NewEmbedded(storage.NewEngine(name), nil)
	}
	reg := registry.New()
	k, err := core.New(core.Config{
		Sources:       sources,
		Registry:      reg,
		DefaultTxType: transaction.XA,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(Install(k).Close)
	s := k.NewSession()
	exec(t, s, createUserRule)
	exec(t, s, "CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(32))")
	return k, s, sources, reg
}

// txnMetric reads one transaction counter (txn.<name>) out of SHOW METRICS.
func txnMetric(t *testing.T, s *core.Session, name string) int64 {
	t.Helper()
	v, ok := metrics(t, s)["txn."+name]
	if !ok {
		t.Fatalf("metric txn.%s not in SHOW METRICS", name)
	}
	return v
}

// TestTxnChaosCoordinatorCrashRecovery is the tentpole's chaos
// acceptance: a coordinator killed between the decision-point log write
// and phase 2 surfaces the typed in-doubt outcome to the client, and a
// replacement coordinator over the same registry completes the commit
// exactly once.
func TestTxnChaosCoordinatorCrashRecovery(t *testing.T) {
	_, s, sources, reg := txnFixture(t)
	defer s.Close()

	exec(t, s, "INJECT FAULT coordinator (CRASH_POINT = 'after_log_write')")

	// uid 0 hashes to ds0, uid 1 to ds1: a genuinely cross-shard commit.
	// The ds0 branch opens local before the upgrade, is written again
	// after it, and is adopted into the xid only in its prepare batch.
	exec(t, s, "BEGIN")
	exec(t, s, "INSERT INTO t_user (uid, name) VALUES (0, 'a')")
	exec(t, s, "INSERT INTO t_user (uid, name) VALUES (1, 'b')")
	exec(t, s, "UPDATE t_user SET name = 'z'")
	if got := txnMetric(t, s, "upgrades"); got != 1 {
		t.Fatalf("upgrades = %d: the ds0 branch did not open before the upgrade", got)
	}
	_, err := s.Execute("COMMIT")
	if err == nil {
		t.Fatal("commit through crashed coordinator returned nil")
	}
	id, ok := transaction.ParseInDoubt(err.Error())
	if !ok {
		t.Fatalf("want in-doubt outcome, got: %v", err)
	}
	if id.XID == "" || len(id.Pending) != 2 {
		t.Fatalf("in-doubt details: %+v", id)
	}
	if got := txnMetric(t, s, "in_doubt"); got != 1 {
		t.Fatalf("in_doubt metric = %d", got)
	}

	// The fault shows up in SHOW FAULTS and is removable.
	var sawFault bool
	for _, row := range rows(t, exec(t, s, "SHOW FAULTS")) {
		if row[0].AsString() == "coordinator" {
			sawFault = true
		}
	}
	if !sawFault {
		t.Fatal("coordinator fault missing from SHOW FAULTS")
	}
	exec(t, s, "REMOVE FAULT coordinator")
	if _, err := s.Execute("REMOVE FAULT coordinator"); err == nil {
		t.Fatal("double remove succeeded")
	}

	// A replacement coordinator attaches to the same registry and data
	// sources (the "restart") and finishes phase 2 from the logged
	// decision — exactly once.
	k2, err := core.New(core.Config{
		Sources:       sources,
		Registry:      reg,
		DefaultTxType: transaction.XA,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := k2.TxManager().Recover(context.TODO())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d transactions, want 1", n)
	}
	if n, _ := k2.TxManager().Recover(context.TODO()); n != 0 {
		t.Fatalf("second recovery resolved %d", n)
	}

	// Both rows are durable and visible through the original kernel, with
	// the write made after the upgrade on both branches.
	got := rows(t, exec(t, s, "SELECT COUNT(*) FROM t_user WHERE name = 'z'"))
	if len(got) != 1 || got[0][0].I != 2 {
		t.Fatalf("recovered rows: %v", got)
	}
	if v, _, _ := reg.Get("/transactions/" + id.XID); v != "" {
		t.Fatal("transaction log record lingers after recovery")
	}

	// With the fault gone the commit path is healthy again, and a
	// single-shard transaction takes the fast path (the counter is the
	// DistSQL-visible proof that no XA verbs were used).
	exec(t, s, "BEGIN")
	exec(t, s, "INSERT INTO t_user (uid, name) VALUES (2, 'c')")
	exec(t, s, "COMMIT")
	if got := txnMetric(t, s, "fastpath_commits"); got != 1 {
		t.Fatalf("fastpath_commits = %d", got)
	}
}

// TestTxnChaosCrashBeforeDecisionAborts covers the other crash point: the
// coordinator dies after prepare but before the decision is logged, so
// presumed abort must roll everything back on recovery.
func TestTxnChaosCrashBeforeDecisionAborts(t *testing.T) {
	k, s, _, _ := txnFixture(t)
	defer s.Close()

	exec(t, s, "INJECT FAULT coordinator (CRASH_POINT = 'after_prepare')")
	// The ds0 branch opens local before the upgrade, as above.
	exec(t, s, "BEGIN")
	exec(t, s, "INSERT INTO t_user (uid, name) VALUES (0, 'a')")
	exec(t, s, "INSERT INTO t_user (uid, name) VALUES (1, 'b')")
	exec(t, s, "UPDATE t_user SET name = 'z'")
	if got := txnMetric(t, s, "upgrades"); got != 1 {
		t.Fatalf("upgrades = %d: the ds0 branch did not open before the upgrade", got)
	}
	_, err := s.Execute("COMMIT")
	if err == nil {
		t.Fatal("commit through crashed coordinator returned nil")
	}
	if _, ok := transaction.ParseInDoubt(err.Error()); ok {
		t.Fatalf("undecided crash must not be in-doubt: %v", err)
	}
	exec(t, s, "REMOVE FAULT coordinator")

	n, err := k.TxManager().Recover(context.TODO())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing recovered")
	}
	got := rows(t, exec(t, s, "SELECT COUNT(*) FROM t_user"))
	if len(got) != 1 || got[0][0].I != 0 {
		t.Fatalf("presumed abort failed, rows: %v", got)
	}
	// Both prepared branches, the adopted one too, were rolled back.
	if n, _ := k.TxManager().Recover(context.TODO()); n != 0 {
		t.Fatalf("second recovery resolved %d", n)
	}
}

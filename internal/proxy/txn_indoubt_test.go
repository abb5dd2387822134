package proxy

import (
	"context"
	"testing"

	"shardingsphere/internal/core"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sharding"
	"shardingsphere/internal/storage"
	"shardingsphere/internal/transaction"
	"shardingsphere/pkg/client"
)

// TestInDoubtOverWire pins the in-doubt outcome's wire contract: a
// partial phase-2 failure inside the kernel crosses the proxy protocol
// as text and re-types on the client side via client.IsInDoubt — with
// the XID and pending branches intact, and NOT classified as transient
// (retrying a logged commit decision would double-apply it).
func TestInDoubtOverWire(t *testing.T) {
	sources := map[string]*resource.DataSource{}
	for _, name := range []string{"ds0", "ds1"} {
		sources[name] = resource.NewEmbedded(storage.NewEngine(name), nil)
	}
	rules := sharding.NewRuleSet()
	rule, err := sharding.BuildAutoRule(sharding.AutoTableSpec{
		LogicTable:     "t_user",
		Resources:      []string{"ds0", "ds1"},
		ShardingColumn: "uid",
		AlgorithmType:  "MOD",
		ShardingCount:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rules.AddRule(rule)
	k, err := core.New(core.Config{
		Sources:       sources,
		Rules:         rules,
		DefaultTxType: transaction.XA,
	})
	if err != nil {
		t.Fatal(err)
	}
	armed := true
	k.TxManager().SetCrashHook(func(point string) bool {
		if armed && point == transaction.CrashAfterLogWrite {
			armed = false
			return true
		}
		return false
	})

	srv := NewServer(&KernelBackend{Kernel: k})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	if _, err := c.Exec(ctx, "CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(32))"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(ctx, "BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(ctx, "INSERT INTO t_user (uid, name) VALUES (0, 'a')"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(ctx, "INSERT INTO t_user (uid, name) VALUES (1, 'b')"); err != nil {
		t.Fatal(err)
	}
	// The ds0 branch opened local before the upgrade; its XA ADOPT rides
	// the prepare batch.
	if got := k.TxManager().Metrics()["upgrades"]; got != 1 {
		t.Fatalf("upgrades = %d: the ds0 branch did not open before the upgrade", got)
	}
	_, commitErr := c.Exec(ctx, "COMMIT")
	if commitErr == nil {
		t.Fatal("in-doubt commit returned nil over the wire")
	}
	id, ok := client.IsInDoubt(commitErr)
	if !ok {
		t.Fatalf("client.IsInDoubt missed the typed outcome: %v", commitErr)
	}
	if id.XID == "" || len(id.Pending) != 2 {
		t.Fatalf("in-doubt details lost in transit: %+v", id)
	}
	if resource.IsTransient(commitErr) {
		t.Fatal("in-doubt must not be transient: a retry would double-apply the commit")
	}

	// Recover completes both branches: both rows are visible.
	if n, err := k.TxManager().Recover(ctx); err != nil || n != 1 {
		t.Fatalf("recovered %d transactions (%v), want 1", n, err)
	}
	rs, err := c.Query(ctx, "SELECT COUNT(*) FROM t_user")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := resource.ReadAll(rs); err != nil || len(got) != 1 || got[0][0].I != 2 {
		t.Fatalf("after recovery: %v %v", got, err)
	}

	// An ordinary error stays untyped.
	_, err = c.Exec(ctx, "SELECT broken FROM nowhere")
	if err == nil {
		t.Fatal("bad query succeeded")
	}
	if _, ok := client.IsInDoubt(err); ok {
		t.Fatalf("false positive in-doubt: %v", err)
	}
}

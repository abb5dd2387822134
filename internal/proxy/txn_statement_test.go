package proxy

import (
	"context"
	"testing"

	"shardingsphere/internal/core"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sharding"
	"shardingsphere/internal/transaction"
	"shardingsphere/pkg/client"
)

// A split INSERT whose duplicate key fails one unit, sent through
// pkg/client -> proxy -> kernel -> two remote data nodes, where each
// source's two units go out as one pipelined window: under LOCAL and XA,
// outside a transaction, it leaves the row count unchanged, no prepared
// branch on either node, every pooled connection back, and no row lock
// behind — the same rows insert at once without the duplicate. Inside a
// transaction it leaves nothing either, and the transaction commits the
// good INSERT that follows it.
func TestFailedSplitInsertOverWireLeavesNothing(t *testing.T) {
	for _, tx := range []transaction.Type{transaction.Local, transaction.XA} {
		t.Run(tx.String(), func(t *testing.T) {
			sources := map[string]*resource.DataSource{}
			nodes := map[string]string{}
			for _, name := range []string{"ds0", "ds1"} {
				addr, _ := startNodeServer(t, name)
				nodes[name] = addr
				sources[name] = client.NewRemoteDataSource(name, addr, nil)
				t.Cleanup(sources[name].Close)
			}
			rules := sharding.NewRuleSet()
			rule, err := sharding.BuildAutoRule(sharding.AutoTableSpec{
				LogicTable:     "t_user",
				Resources:      []string{"ds0", "ds1"},
				ShardingColumn: "uid",
				AlgorithmType:  "MOD",
				ShardingCount:  4,
			})
			if err != nil {
				t.Fatal(err)
			}
			rules.AddRule(rule)
			k, err := core.New(core.Config{Sources: sources, Rules: rules, DefaultTxType: tx})
			if err != nil {
				t.Fatal(err)
			}
			srv := NewServer(&KernelBackend{Kernel: k})
			addr, err := srv.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Close)
			c, err := client.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })

			ctx := context.Background()
			count := func() int64 {
				t.Helper()
				rs, err := c.Query(ctx, "SELECT COUNT(*) FROM t_user")
				if err != nil {
					t.Fatal(err)
				}
				rows, err := resource.ReadAll(rs)
				if err != nil {
					t.Fatal(err)
				}
				return rows[0][0].I
			}
			for _, sql := range []string{
				"CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(32))",
				"INSERT INTO t_user (uid, name) VALUES (0, 'a'), (1, 'b'), (2, 'c'), (3, 'd')",
			} {
				if _, err := c.Exec(ctx, sql); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			}
			// Four shards, two per source: 4 and 6 go to ds0, 5, 7 and the
			// duplicate 1 to ds1.
			if _, err := c.Exec(ctx, "INSERT INTO t_user (uid, name) VALUES (4, 'e'), (5, 'f'), (6, 'g'), (7, 'h'), (1, 'dup')"); err == nil {
				t.Fatal("an INSERT with a duplicate key succeeded")
			}
			if n := count(); n != 4 {
				t.Fatalf("%d rows after the failed INSERT, want the 4 it started with", n)
			}
			settled := func() {
				t.Helper()
				for name, addr := range nodes {
					node, err := client.Dial(addr)
					if err != nil {
						t.Fatal(err)
					}
					rs, err := node.Query(ctx, "XA RECOVER")
					if err != nil {
						t.Fatal(err)
					}
					rows, err := resource.ReadAll(rs)
					node.Close()
					if err != nil || len(rows) != 0 {
						t.Fatalf("%s: XA RECOVER lists %v (%v), want nothing prepared", name, rows, err)
					}
					if st := sources[name].Stats(); st.InUse != 0 {
						t.Fatalf("%s: %d pooled connections still in use", name, st.InUse)
					}
				}
			}
			settled()
			if _, err := c.Exec(ctx, "INSERT INTO t_user (uid, name) VALUES (4, 'e'), (5, 'f'), (6, 'g'), (7, 'h')"); err != nil {
				t.Fatalf("the same rows without the duplicate: %v", err)
			}
			if n := count(); n != 8 {
				t.Fatalf("%d rows, want 8", n)
			}
			// Inside a transaction the failed INSERT leaves nothing on either
			// node, and the transaction goes on to commit the good one.
			for _, sql := range []string{"BEGIN", "INSERT INTO t_user (uid, name) VALUES (8, 'i'), (9, 'j'), (10, 'k'), (11, 'l'), (1, 'dup')"} {
				if _, err := c.Exec(ctx, sql); (err == nil) != (sql == "BEGIN") {
					t.Fatalf("%s: %v", sql, err)
				}
			}
			for _, sql := range []string{"INSERT INTO t_user (uid, name) VALUES (8, 'i'), (9, 'j')", "COMMIT"} {
				if _, err := c.Exec(ctx, sql); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			}
			if n := count(); n != 10 {
				t.Fatalf("%d rows after the transaction, want 10", n)
			}
			settled()
		})
	}
}

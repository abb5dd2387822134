package tpcc

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"shardingsphere/internal/core"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
	"shardingsphere/internal/transaction"
)

// newKernel loads two warehouses into a kernel over two embedded sources,
// one warehouse per source, whose sessions start transactions of txType.
func newKernel(t *testing.T, txType transaction.Type) (*core.Kernel, config) {
	t.Helper()
	names := []string{"ds0", "ds1"}
	rules, err := shardingRules(names)
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]*resource.DataSource{}
	for _, name := range names {
		sources[name] = resource.NewEmbedded(storage.NewEngine(name), nil)
	}
	k, err := core.New(core.Config{Rules: rules, Sources: sources, MaxCon: 4, DefaultTxType: txType})
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{
		Warehouses:               2,
		DistrictsPerWarehouse:    3,
		CustomersPerDistrict:     5,
		Items:                    20,
		InitialOrdersPerDistrict: 4,
	}
	c := newTerminal(t, k)
	if err := prepare(c, cfg); err != nil {
		t.Fatal(err)
	}
	return k, cfg
}

func newTerminal(t *testing.T, k *core.Kernel) terminal {
	c := terminal{k.NewSession()}
	t.Cleanup(c.Close)
	return c
}

// runTerminals runs n transactions on each of the given number of
// concurrent terminals, terminal w seeding its generator with seed+w.
func runTerminals(t *testing.T, k *core.Kernel, terminals, n int, seed int64, tx func(terminal, *rand.Rand) error) {
	t.Helper()
	errs := make(chan error, terminals)
	for w := 0; w < terminals; w++ {
		c := newTerminal(t, k)
		rng := rand.New(rand.NewSource(seed + int64(w)))
		go func() {
			for i := 0; i < n; i++ {
				if err := tx(c, rng); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	var first error
	for w := 0; w < terminals; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		t.Fatal(first)
	}
}

func queryOne(t *testing.T, c terminal, sql string, args ...sqltypes.Value) sqltypes.Row {
	t.Helper()
	rows, err := c.query(sql, args...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if len(rows) != 1 {
		t.Fatalf("%s: %d rows", sql, len(rows))
	}
	return rows[0]
}

func TestPrepareLoadsConsistentState(t *testing.T) {
	k, _ := newKernel(t, transaction.Local)
	c := newTerminal(t, k)

	if got := queryOne(t, c, "SELECT COUNT(*) FROM bmsql_warehouse"); got[0].I != 2 {
		t.Fatalf("warehouses: %v", got)
	}
	if got := queryOne(t, c, "SELECT COUNT(*) FROM bmsql_district"); got[0].I != 6 {
		t.Fatalf("districts: %v", got)
	}
	if got := queryOne(t, c, "SELECT COUNT(*) FROM bmsql_customer"); got[0].I != 30 {
		t.Fatalf("customers: %v", got)
	}
	if got := queryOne(t, c, "SELECT COUNT(*) FROM bmsql_stock"); got[0].I != 40 {
		t.Fatalf("stock: %v", got)
	}
	if got := queryOne(t, c, "SELECT COUNT(*) FROM bmsql_oorder"); got[0].I != 24 {
		t.Fatalf("orders: %v", got)
	}
	// 2 of each district's 4 initial orders are pending delivery.
	if got := queryOne(t, c, "SELECT COUNT(*) FROM bmsql_new_order"); got[0].I != 12 {
		t.Fatalf("new orders: %v", got)
	}
	// order_line table-shards inside each source.
	src, _ := k.Executor().Source("ds0")
	conn, _ := src.Acquire()
	rs, err := conn.Query(context.Background(), "SHOW TABLES")
	if err != nil {
		t.Fatal(err)
	}
	names := 0
	for {
		row, e := rs.Next()
		if e != nil {
			break
		}
		if len(row[0].S) >= len("bmsql_order_line_") && row[0].S[:17] == "bmsql_order_line_" {
			names++
		}
	}
	rs.Close()
	conn.Release()
	if names != 10 {
		t.Fatalf("order_line shards in ds0: %d", names)
	}
}

func TestNewOrderAdvancesDistrictAndWritesLines(t *testing.T) {
	k, cfg := newKernel(t, transaction.Local)
	c := newTerminal(t, k)
	rng := rand.New(rand.NewSource(11))

	before := queryOne(t, c, "SELECT SUM(d_next_o_id) FROM bmsql_district")[0].I
	linesBefore := queryOne(t, c, "SELECT COUNT(*) FROM bmsql_order_line")[0].I
	const n = 5
	for i := 0; i < n; i++ {
		if err := cfg.newOrder(c, rng); err != nil {
			t.Fatal(err)
		}
	}
	after := queryOne(t, c, "SELECT SUM(d_next_o_id) FROM bmsql_district")[0].I
	if after != before+n {
		t.Fatalf("d_next_o_id advanced by %d, want %d", after-before, n)
	}
	linesAfter := queryOne(t, c, "SELECT COUNT(*) FROM bmsql_order_line")[0].I
	if linesAfter <= linesBefore {
		t.Fatal("no order lines written")
	}
	// Each new order has between 5 and 15 lines.
	perOrder := float64(linesAfter-linesBefore) / n
	if perOrder < 5 || perOrder > 15 {
		t.Fatalf("lines per order: %f", perOrder)
	}
}

func TestPaymentMovesMoney(t *testing.T) {
	k, cfg := newKernel(t, transaction.Local)
	c := newTerminal(t, k)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 5; i++ {
		if err := cfg.payment(c, rng); err != nil {
			t.Fatal(err)
		}
	}
	ytd := queryOne(t, c, "SELECT SUM(w_ytd) FROM bmsql_warehouse")[0].AsFloat()
	if ytd <= 0 {
		t.Fatalf("warehouse ytd: %f", ytd)
	}
	dytd := queryOne(t, c, "SELECT SUM(d_ytd) FROM bmsql_district")[0].AsFloat()
	if dytd != ytd {
		t.Fatalf("district ytd %f != warehouse ytd %f", dytd, ytd)
	}
	if got := queryOne(t, c, "SELECT COUNT(*) FROM bmsql_history"); got[0].I != 5 {
		t.Fatalf("history rows: %v", got)
	}
}

// TestConcurrentPaymentsKeepConsistency is TPC-C consistency condition 1
// under concurrency: 4 clients run 300 Payments each, and every Payment
// adds its amount to W_YTD, D_YTD and a new H_AMOUNT, so the three sums
// agree (to rounding of the float additions' order).
func TestConcurrentPaymentsKeepConsistency(t *testing.T) {
	k, cfg := newKernel(t, transaction.Local)
	runTerminals(t, k, 4, 300, 20, cfg.payment)
	c := newTerminal(t, k)
	wytd := queryOne(t, c, "SELECT SUM(w_ytd) FROM bmsql_warehouse")[0].AsFloat()
	dytd := queryOne(t, c, "SELECT SUM(d_ytd) FROM bmsql_district")[0].AsFloat()
	hamount := queryOne(t, c, "SELECT SUM(h_amount) FROM bmsql_history")[0].AsFloat()
	if math.Abs(wytd-dytd) > 0.01 || math.Abs(dytd-hamount) > 0.01 {
		t.Fatalf("sum W_YTD %.2f, sum D_YTD %.2f, sum H_AMOUNT %.2f", wytd, dytd, hamount)
	}
}

// TestPaymentCommitPaths runs Payment under XA both ways TPC-C allows.
// Every payment of the first round pays a customer of the other
// warehouse, so it writes both sources and commits by two-phase commit;
// every payment of the second stays home on one source and commits as
// plain BEGIN/COMMIT, with no XA log write. Every committed payment
// leaves its history row, and none ends in doubt.
func TestPaymentCommitPaths(t *testing.T) {
	const terminals, perTerminal = 4, 25
	const payments = terminals * perTerminal
	k, cfg := newKernel(t, transaction.XA)
	mgr := k.TxManager()
	round := func(remotePct int, seed int64) map[string]int64 {
		t.Helper()
		rcfg := cfg
		rcfg.RemotePaymentPct = remotePct
		before := mgr.Metrics()
		runTerminals(t, k, terminals, perTerminal, seed, rcfg.payment)
		delta := mgr.Metrics()
		for name, v := range before {
			delta[name] -= v
		}
		return delta
	}
	if m := round(100, 20); m["xa_commits"] != payments || m["fastpath_commits"] != 0 {
		t.Fatalf("cross-warehouse payments: %v", m)
	}
	if m := round(0, 40); m["fastpath_commits"] != payments || m["xa_commits"] != 0 || m["group_ops"] != 0 {
		t.Fatalf("home payments: %v", m)
	}
	c := newTerminal(t, k)
	if got := queryOne(t, c, "SELECT COUNT(*) FROM bmsql_history")[0].I; got != 2*payments {
		t.Fatalf("history rows %d != committed payments %d: a commit half-applied", got, 2*payments)
	}
	if m := mgr.Metrics(); m["in_doubt"] != 0 {
		t.Fatalf("in-doubt transactions: %v", m)
	}
}

func TestDeliveryDrainsNewOrders(t *testing.T) {
	k, cfg := newKernel(t, transaction.Local)
	c := newTerminal(t, k)
	rng := rand.New(rand.NewSource(13))
	before := queryOne(t, c, "SELECT COUNT(*) FROM bmsql_new_order")[0].I
	// Deliver both warehouses a few times; the queue must drain.
	for i := 0; i < 6; i++ {
		if err := cfg.delivery(c, rng); err != nil {
			t.Fatal(err)
		}
	}
	after := queryOne(t, c, "SELECT COUNT(*) FROM bmsql_new_order")[0].I
	if after >= before {
		t.Fatalf("delivery did not drain: %d → %d", before, after)
	}
	// Delivered orders carry a carrier id.
	carriers := queryOne(t, c, "SELECT COUNT(*) FROM bmsql_oorder WHERE o_carrier_id > 0")
	if carriers[0].I <= 0 {
		t.Fatal("no carriers assigned")
	}
}

func TestOrderStatusAndStockLevelRun(t *testing.T) {
	k, cfg := newKernel(t, transaction.Local)
	c := newTerminal(t, k)
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 5; i++ {
		if err := cfg.orderStatus(c, rng); err != nil {
			t.Fatal(err)
		}
		if err := cfg.stockLevel(c, rng); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMixRunsAllTransactions(t *testing.T) {
	k, cfg := newKernel(t, transaction.Local)
	c := newTerminal(t, k)
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 40; i++ {
		if err := cfg.mix(c, rng); err != nil {
			t.Fatalf("mix iteration %d: %v", i, err)
		}
	}
}

func TestItemIsBroadcast(t *testing.T) {
	k, _ := newKernel(t, transaction.Local)
	// Every source holds the full item catalog.
	for i := 0; i < 2; i++ {
		src, _ := k.Executor().Source(fmt.Sprintf("ds%d", i))
		conn, _ := src.Acquire()
		rs, err := conn.Query(context.Background(), "SELECT COUNT(*) FROM bmsql_item")
		if err != nil {
			t.Fatal(err)
		}
		row, _ := rs.Next()
		rs.Close()
		conn.Release()
		if row[0].I != 20 {
			t.Fatalf("ds%d items: %v", i, row)
		}
	}
}

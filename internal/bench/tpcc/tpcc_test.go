package tpcc

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"shardingsphere/internal/bench"
	"shardingsphere/internal/sqltypes"
)

func newSystem(t *testing.T) (*bench.System, Config) {
	t.Helper()
	sources := []string{"ds0", "ds1"}
	rules, err := Rules(sources)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := bench.NewSSJ(bench.Topology{Sources: 2, MaxCon: 4}.WithRules(rules))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	cfg := Config{
		Warehouses:               2,
		DistrictsPerWarehouse:    3,
		CustomersPerDistrict:     5,
		Items:                    20,
		InitialOrdersPerDistrict: 4,
	}
	if err := bench.PrepareOn(sys, func(c bench.Client) error {
		return Prepare(c, cfg)
	}); err != nil {
		t.Fatal(err)
	}
	return sys, cfg
}

func queryOne(t *testing.T, c bench.Client, sql string, args ...sqltypes.Value) sqltypes.Row {
	t.Helper()
	rows, err := c.Query(sql, args...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if len(rows) != 1 {
		t.Fatalf("%s: %d rows", sql, len(rows))
	}
	return rows[0]
}

func TestPrepareLoadsConsistentState(t *testing.T) {
	sys, _ := newSystem(t)
	c, _ := sys.NewClient(0)
	defer c.Close()

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
	src, _ := sys.Kernel.Executor().Source("ds0")
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
	sys, cfg := newSystem(t)
	c, _ := sys.NewClient(0)
	defer c.Close()
	rng := rand.New(rand.NewSource(11))

	before := queryOne(t, c, "SELECT SUM(d_next_o_id) FROM bmsql_district")[0].I
	linesBefore := queryOne(t, c, "SELECT COUNT(*) FROM bmsql_order_line")[0].I
	const n = 5
	for i := 0; i < n; i++ {
		if err := cfg.NewOrder(c, rng); err != nil {
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
	sys, cfg := newSystem(t)
	c, _ := sys.NewClient(0)
	defer c.Close()
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 5; i++ {
		if err := cfg.Payment(c, rng); err != nil {
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
	sys, cfg := newSystem(t)
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		c, err := sys.NewClient(w)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(20 + w)))
			for i := 0; i < 300; i++ {
				if err := cfg.Payment(c, rng); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < 4; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	c, _ := sys.NewClient(0)
	defer c.Close()
	wytd := queryOne(t, c, "SELECT SUM(w_ytd) FROM bmsql_warehouse")[0].AsFloat()
	dytd := queryOne(t, c, "SELECT SUM(d_ytd) FROM bmsql_district")[0].AsFloat()
	hamount := queryOne(t, c, "SELECT SUM(h_amount) FROM bmsql_history")[0].AsFloat()
	if math.Abs(wytd-dytd) > 0.01 || math.Abs(dytd-hamount) > 0.01 {
		t.Fatalf("sum W_YTD %.2f, sum D_YTD %.2f, sum H_AMOUNT %.2f", wytd, dytd, hamount)
	}
}

func TestDeliveryDrainsNewOrders(t *testing.T) {
	sys, cfg := newSystem(t)
	c, _ := sys.NewClient(0)
	defer c.Close()
	rng := rand.New(rand.NewSource(13))
	before := queryOne(t, c, "SELECT COUNT(*) FROM bmsql_new_order")[0].I
	// Deliver both warehouses a few times; the queue must drain.
	for i := 0; i < 6; i++ {
		if err := cfg.Delivery(c, rng); err != nil {
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
	sys, cfg := newSystem(t)
	c, _ := sys.NewClient(0)
	defer c.Close()
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 5; i++ {
		if err := cfg.OrderStatus(c, rng); err != nil {
			t.Fatal(err)
		}
		if err := cfg.StockLevel(c, rng); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMixRunsAllTransactions(t *testing.T) {
	sys, cfg := newSystem(t)
	c, _ := sys.NewClient(0)
	defer c.Close()
	rng := rand.New(rand.NewSource(15))
	mix := cfg.Mix()
	for i := 0; i < 40; i++ {
		if err := mix(c, rng); err != nil {
			t.Fatalf("mix iteration %d: %v", i, err)
		}
	}
}

func TestItemIsBroadcast(t *testing.T) {
	sys, cfg := newSystem(t)
	_ = cfg
	// Every source holds the full item catalog.
	for i := 0; i < 2; i++ {
		src, _ := sys.Kernel.Executor().Source(fmt.Sprintf("ds%d", i))
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

// Package tpcc holds the TPC-C workload the paper's Fig. 9 uses, as test
// code only, and the workload-level invariants checked on it: the warehouse-keyed tables and the five transactions with the
// standard mix (New-Order 45 %, Payment 43 %, Order-Status 4 %, Delivery
// 4 %, Stock-Level 4 %). Tables shard by warehouse id across the data
// sources; bmsql_order_line is additionally table-sharded 10× inside each
// source (by order id), exactly the layout the paper describes; bmsql_item
// is a broadcast (replicated) catalog.
//
// Row counts are scaled down from TPC-C's ~600k rows per warehouse to a
// configurable in-process size; the schema shape, transaction structure
// and mix are preserved.
//
// Surrogate single-column primary keys (d_key = w*10+d, etc.) stand in
// for TPC-C's composite keys so that point accesses stay index-backed;
// every query also carries the warehouse column so routing can narrow.
package tpcc

import (
	"fmt"
	"math/rand"
	"strings"

	"shardingsphere/internal/core"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sqltypes"
)

// terminal is one TPC-C client: a kernel session whose statements either
// fail or return their rows.
type terminal struct{ *core.Session }

func (c terminal) exec(sql string, args ...sqltypes.Value) error {
	_, err := c.Session.Exec(sql, args...)
	return err
}

func (c terminal) query(sql string, args ...sqltypes.Value) ([]sqltypes.Row, error) {
	rs, err := c.Session.Query(sql, args...)
	if err != nil {
		return nil, err
	}
	return resource.ReadAll(rs)
}

// config sizes the workload.
type config struct {
	Warehouses            int
	DistrictsPerWarehouse int
	CustomersPerDistrict  int
	Items                 int
	// InitialOrdersPerDistrict pre-loads delivered and undelivered orders.
	InitialOrdersPerDistrict int
	// RemotePaymentPct is the percentage (0–100) of Payment transactions
	// paying for a customer of a different (remote) warehouse — the
	// TPC-C clause 2.5.1.2 cross-warehouse case. With warehouse-sharded
	// tables a remote payment touches two shards and exercises the
	// distributed commit path; 0 keeps every payment single-warehouse.
	RemotePaymentPct int
}

func (cfg config) dKey(w, d int) int64 { return int64(w*100 + d) }
func (cfg config) cKey(w, d, c int) int64 {
	return int64((w*100+d)*100000 + c)
}
func (cfg config) oKey(w, d, o int) int64 {
	return int64((w*100+d)*1000000 + o)
}

// shardingRules builds the sharding rule set for the given data sources: every
// warehouse-keyed table shards by its *_w_id over the sources; order_line
// is further split into 10 tables per source by order id (the paper's
// layout for bmsql_order_line); item broadcasts.
func shardingRules(sources []string) (*sharding.RuleSet, error) {
	rs := sharding.NewRuleSet()
	warehouseSharded := []struct{ table, col string }{
		{"bmsql_warehouse", "w_id"},
		{"bmsql_district", "d_w_id"},
		{"bmsql_customer", "c_w_id"},
		{"bmsql_history", "h_w_id"},
		{"bmsql_oorder", "o_w_id"},
		{"bmsql_new_order", "no_w_id"},
		{"bmsql_stock", "s_w_id"},
	}
	for _, spec := range warehouseSharded {
		rule, err := sharding.BuildAutoRule(sharding.AutoTableSpec{
			LogicTable:     spec.table,
			Resources:      sources,
			ShardingColumn: spec.col,
			AlgorithmType:  "MOD",
			ShardingCount:  len(sources),
		})
		if err != nil {
			return nil, err
		}
		rs.AddRule(rule)
	}
	// order_line: database strategy MOD(w) over sources, table strategy
	// INLINE on the order id over 10 tables per source.
	dbAlgo, err := sharding.New("MOD", map[string]string{"sharding-count": fmt.Sprint(len(sources))})
	if err != nil {
		return nil, err
	}
	tblAlgo, err := sharding.New("INLINE", map[string]string{
		"algorithm-expression":                   "bmsql_order_line_${ol_o_id % 10}",
		"allow-range-query-with-inline-sharding": "true",
	})
	if err != nil {
		return nil, err
	}
	olRule := &sharding.TableRule{
		LogicTable:    "bmsql_order_line",
		DBStrategy:    &sharding.Strategy{Column: "ol_w_id", Algorithm: dbAlgo},
		TableStrategy: &sharding.Strategy{Column: "ol_o_id", Algorithm: tblAlgo},
	}
	for _, ds := range sources {
		for t := 0; t < 10; t++ {
			olRule.DataNodes = append(olRule.DataNodes, sharding.DataNode{
				DataSource: ds,
				Table:      fmt.Sprintf("bmsql_order_line_%d", t),
			})
		}
	}
	rs.AddRule(olRule)
	rs.Broadcast["bmsql_item"] = true
	rs.DefaultDataSource = sources[0]
	return rs, nil
}

// schemas returns the DDL for every logic table.
func schemas() []string {
	return []string{
		`CREATE TABLE bmsql_warehouse (w_id INT PRIMARY KEY, w_name VARCHAR(10), w_ytd FLOAT)`,
		`CREATE TABLE bmsql_district (d_key INT PRIMARY KEY, d_w_id INT, d_id INT, d_ytd FLOAT, d_next_o_id INT)`,
		`CREATE TABLE bmsql_customer (c_key INT PRIMARY KEY, c_w_id INT, c_d_id INT, c_id INT, c_name VARCHAR(16), c_balance FLOAT)`,
		`CREATE TABLE bmsql_history (h_key BIGINT PRIMARY KEY, h_w_id INT, h_c_key INT, h_amount FLOAT)`,
		`CREATE TABLE bmsql_oorder (o_key INT PRIMARY KEY, o_w_id INT, o_d_id INT, o_id INT, o_c_id INT, o_carrier_id INT, o_ol_cnt INT)`,
		`CREATE TABLE bmsql_new_order (no_key INT PRIMARY KEY, no_w_id INT, no_d_id INT, no_o_id INT)`,
		`CREATE TABLE bmsql_order_line (ol_key BIGINT PRIMARY KEY, ol_w_id INT, ol_d_id INT, ol_o_id INT, ol_number INT, ol_i_id INT, ol_quantity INT, ol_amount FLOAT)`,
		`CREATE TABLE bmsql_stock (s_key INT PRIMARY KEY, s_w_id INT, s_i_id INT, s_quantity INT)`,
		`CREATE TABLE bmsql_item (i_id INT PRIMARY KEY, i_name VARCHAR(24), i_price FLOAT)`,
	}
}

// prepare creates and loads all tables through the terminal.
func prepare(c terminal, cfg config) error {
	for _, ddl := range schemas() {
		if err := c.exec(ddl); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(9902))
	// Items (broadcast).
	var items strings.Builder
	items.WriteString("INSERT INTO bmsql_item (i_id, i_name, i_price) VALUES ")
	for i := 1; i <= cfg.Items; i++ {
		if i > 1 {
			items.WriteString(", ")
		}
		fmt.Fprintf(&items, "(%d, 'item-%d', %0.2f)", i, i, 1+rng.Float64()*99)
	}
	if err := c.exec(items.String()); err != nil {
		return err
	}
	for w := 1; w <= cfg.Warehouses; w++ {
		if err := c.exec(fmt.Sprintf(
			"INSERT INTO bmsql_warehouse (w_id, w_name, w_ytd) VALUES (%d, 'wh-%d', 0)", w, w)); err != nil {
			return err
		}
		// Stock: one row per item per warehouse.
		var stock strings.Builder
		stock.WriteString("INSERT INTO bmsql_stock (s_key, s_w_id, s_i_id, s_quantity) VALUES ")
		for i := 1; i <= cfg.Items; i++ {
			if i > 1 {
				stock.WriteString(", ")
			}
			fmt.Fprintf(&stock, "(%d, %d, %d, %d)", w*100000+i, w, i, 50+rng.Intn(50))
		}
		if err := c.exec(stock.String()); err != nil {
			return err
		}
		for d := 1; d <= cfg.DistrictsPerWarehouse; d++ {
			nextO := cfg.InitialOrdersPerDistrict + 1
			if err := c.exec(fmt.Sprintf(
				"INSERT INTO bmsql_district (d_key, d_w_id, d_id, d_ytd, d_next_o_id) VALUES (%d, %d, %d, 0, %d)",
				cfg.dKey(w, d), w, d, nextO)); err != nil {
				return err
			}
			var customers strings.Builder
			customers.WriteString("INSERT INTO bmsql_customer (c_key, c_w_id, c_d_id, c_id, c_name, c_balance) VALUES ")
			for cu := 1; cu <= cfg.CustomersPerDistrict; cu++ {
				if cu > 1 {
					customers.WriteString(", ")
				}
				fmt.Fprintf(&customers, "(%d, %d, %d, %d, 'cust-%d-%d-%d', -10)",
					cfg.cKey(w, d, cu), w, d, cu, w, d, cu)
			}
			if err := c.exec(customers.String()); err != nil {
				return err
			}
			// Initial orders: the older 70% delivered, the rest pending in
			// new_order (TPC-C's initial state shape).
			for o := 1; o <= cfg.InitialOrdersPerDistrict; o++ {
				cID := rng.Intn(cfg.CustomersPerDistrict) + 1
				olCnt := 5 + rng.Intn(5)
				carrier := rng.Intn(10) + 1
				delivered := o <= cfg.InitialOrdersPerDistrict*7/10
				if !delivered {
					carrier = 0
					if err := c.exec(fmt.Sprintf(
						"INSERT INTO bmsql_new_order (no_key, no_w_id, no_d_id, no_o_id) VALUES (%d, %d, %d, %d)",
						cfg.oKey(w, d, o), w, d, o)); err != nil {
						return err
					}
				}
				if err := c.exec(fmt.Sprintf(
					"INSERT INTO bmsql_oorder (o_key, o_w_id, o_d_id, o_id, o_c_id, o_carrier_id, o_ol_cnt) VALUES (%d, %d, %d, %d, %d, %d, %d)",
					cfg.oKey(w, d, o), w, d, o, cID, carrier, olCnt)); err != nil {
					return err
				}
				var ols strings.Builder
				ols.WriteString("INSERT INTO bmsql_order_line (ol_key, ol_w_id, ol_d_id, ol_o_id, ol_number, ol_i_id, ol_quantity, ol_amount) VALUES ")
				for n := 1; n <= olCnt; n++ {
					if n > 1 {
						ols.WriteString(", ")
					}
					fmt.Fprintf(&ols, "(%d, %d, %d, %d, %d, %d, %d, %0.2f)",
						cfg.oKey(w, d, o)*100+int64(n), w, d, o, n,
						rng.Intn(cfg.Items)+1, 1+rng.Intn(10), rng.Float64()*100)
				}
				if err := c.exec(ols.String()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

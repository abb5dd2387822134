package tpcc

import (
	"fmt"
	"math/rand"

	"shardingsphere/internal/sqltypes"
)

func vi(n int64) sqltypes.Value   { return sqltypes.NewInt(n) }
func vf(f float64) sqltypes.Value { return sqltypes.NewFloat(f) }

// newOrder is the New-Order transaction: read warehouse/district, bump
// d_next_o_id, create the order and its lines, update stock.
func (cfg config) newOrder(c terminal, rng *rand.Rand) error {
	w := rng.Intn(cfg.Warehouses) + 1
	d := rng.Intn(cfg.DistrictsPerWarehouse) + 1
	cu := rng.Intn(cfg.CustomersPerDistrict) + 1
	olCnt := 5 + rng.Intn(11) // 5..15 items, per spec

	if err := c.exec("BEGIN"); err != nil {
		return err
	}
	abort := func(err error) error {
		c.exec("ROLLBACK")
		return err
	}
	if _, err := c.query("SELECT w_name FROM bmsql_warehouse WHERE w_id = ?", vi(int64(w))); err != nil {
		return abort(err)
	}
	rows, err := c.query("SELECT d_next_o_id FROM bmsql_district WHERE d_key = ? AND d_w_id = ? FOR UPDATE",
		vi(cfg.dKey(w, d)), vi(int64(w)))
	if err != nil {
		return abort(err)
	}
	if len(rows) != 1 {
		return abort(fmt.Errorf("tpcc: district (%d,%d) missing", w, d))
	}
	oID := int(rows[0][0].I)
	if err := c.exec("UPDATE bmsql_district SET d_next_o_id = ? WHERE d_key = ? AND d_w_id = ?",
		vi(int64(oID+1)), vi(cfg.dKey(w, d)), vi(int64(w))); err != nil {
		return abort(err)
	}
	if err := c.exec(
		"INSERT INTO bmsql_oorder (o_key, o_w_id, o_d_id, o_id, o_c_id, o_carrier_id, o_ol_cnt) VALUES (?, ?, ?, ?, ?, 0, ?)",
		vi(cfg.oKey(w, d, oID)), vi(int64(w)), vi(int64(d)), vi(int64(oID)), vi(int64(cu)), vi(int64(olCnt))); err != nil {
		return abort(err)
	}
	if err := c.exec(
		"INSERT INTO bmsql_new_order (no_key, no_w_id, no_d_id, no_o_id) VALUES (?, ?, ?, ?)",
		vi(cfg.oKey(w, d, oID)), vi(int64(w)), vi(int64(d)), vi(int64(oID))); err != nil {
		return abort(err)
	}
	for n := 1; n <= olCnt; n++ {
		item := rng.Intn(cfg.Items) + 1
		qty := 1 + rng.Intn(10)
		prows, err := c.query("SELECT i_price FROM bmsql_item WHERE i_id = ?", vi(int64(item)))
		if err != nil {
			return abort(err)
		}
		price := prows[0][0].AsFloat()
		if err := c.exec("UPDATE bmsql_stock SET s_quantity = s_quantity - ? WHERE s_key = ? AND s_w_id = ?",
			vi(int64(qty)), vi(int64(w*100000+item)), vi(int64(w))); err != nil {
			return abort(err)
		}
		if err := c.exec(
			"INSERT INTO bmsql_order_line (ol_key, ol_w_id, ol_d_id, ol_o_id, ol_number, ol_i_id, ol_quantity, ol_amount) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
			vi(cfg.oKey(w, d, oID)*100+int64(n)), vi(int64(w)), vi(int64(d)), vi(int64(oID)),
			vi(int64(n)), vi(int64(item)), vi(int64(qty)), vf(price*float64(qty))); err != nil {
			return abort(err)
		}
	}
	return c.exec("COMMIT")
}

// payment updates warehouse and district YTD and the customer balance,
// and records history. Per RemotePaymentPct the customer may belong to a
// different warehouse (TPC-C's cross-warehouse payment): the
// warehouse/district updates stay on the home warehouse's shard while
// the customer and history rows land on the remote one's.
func (cfg config) payment(c terminal, rng *rand.Rand) error {
	w := rng.Intn(cfg.Warehouses) + 1
	d := rng.Intn(cfg.DistrictsPerWarehouse) + 1
	cu := rng.Intn(cfg.CustomersPerDistrict) + 1
	amount := 1 + rng.Float64()*4999
	cw := w // customer's warehouse
	if cfg.RemotePaymentPct > 0 && cfg.Warehouses > 1 && rng.Intn(100) < cfg.RemotePaymentPct {
		cw = rng.Intn(cfg.Warehouses-1) + 1
		if cw >= w {
			cw++
		}
	}

	if err := c.exec("BEGIN"); err != nil {
		return err
	}
	abort := func(err error) error {
		c.exec("ROLLBACK")
		return err
	}
	if err := c.exec("UPDATE bmsql_warehouse SET w_ytd = w_ytd + ? WHERE w_id = ?",
		vf(amount), vi(int64(w))); err != nil {
		return abort(err)
	}
	if err := c.exec("UPDATE bmsql_district SET d_ytd = d_ytd + ? WHERE d_key = ? AND d_w_id = ?",
		vf(amount), vi(cfg.dKey(w, d)), vi(int64(w))); err != nil {
		return abort(err)
	}
	if err := c.exec("UPDATE bmsql_customer SET c_balance = c_balance - ? WHERE c_key = ? AND c_w_id = ?",
		vf(amount), vi(cfg.cKey(cw, d, cu)), vi(int64(cw))); err != nil {
		return abort(err)
	}
	if err := c.exec("INSERT INTO bmsql_history (h_key, h_w_id, h_c_key, h_amount) VALUES (?, ?, ?, ?)",
		vi(rng.Int63()), vi(int64(cw)), vi(cfg.cKey(cw, d, cu)), vf(amount)); err != nil {
		return abort(err)
	}
	return c.exec("COMMIT")
}

// orderStatus reads a customer's balance and their most recent order with
// its lines (read only).
func (cfg config) orderStatus(c terminal, rng *rand.Rand) error {
	w := rng.Intn(cfg.Warehouses) + 1
	d := rng.Intn(cfg.DistrictsPerWarehouse) + 1
	cu := rng.Intn(cfg.CustomersPerDistrict) + 1
	if _, err := c.query("SELECT c_balance, c_name FROM bmsql_customer WHERE c_key = ? AND c_w_id = ?",
		vi(cfg.cKey(w, d, cu)), vi(int64(w))); err != nil {
		return err
	}
	rows, err := c.query(
		"SELECT o_id, o_ol_cnt FROM bmsql_oorder WHERE o_w_id = ? AND o_d_id = ? AND o_c_id = ? ORDER BY o_id DESC LIMIT 1",
		vi(int64(w)), vi(int64(d)), vi(int64(cu)))
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		return nil // customer has no orders yet
	}
	oID := rows[0][0].I
	_, err = c.query(
		"SELECT ol_i_id, ol_quantity, ol_amount FROM bmsql_order_line WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?",
		vi(int64(w)), vi(int64(d)), vi(oID))
	return err
}

// delivery delivers the oldest undelivered order of every district of one
// warehouse — the heaviest transaction, which the paper calls out as
// TiDB's weak spot.
func (cfg config) delivery(c terminal, rng *rand.Rand) error {
	w := rng.Intn(cfg.Warehouses) + 1
	carrier := rng.Intn(10) + 1
	if err := c.exec("BEGIN"); err != nil {
		return err
	}
	abort := func(err error) error {
		c.exec("ROLLBACK")
		return err
	}
	for d := 1; d <= cfg.DistrictsPerWarehouse; d++ {
		rows, err := c.query(
			"SELECT no_o_id FROM bmsql_new_order WHERE no_w_id = ? AND no_d_id = ? ORDER BY no_o_id LIMIT 1",
			vi(int64(w)), vi(int64(d)))
		if err != nil {
			return abort(err)
		}
		if len(rows) == 0 {
			continue
		}
		oID := rows[0][0].I
		if err := c.exec("DELETE FROM bmsql_new_order WHERE no_key = ? AND no_w_id = ?",
			vi(cfg.oKey(w, d, int(oID))), vi(int64(w))); err != nil {
			return abort(err)
		}
		if err := c.exec("UPDATE bmsql_oorder SET o_carrier_id = ? WHERE o_key = ? AND o_w_id = ?",
			vi(int64(carrier)), vi(cfg.oKey(w, d, int(oID))), vi(int64(w))); err != nil {
			return abort(err)
		}
		sums, err := c.query(
			"SELECT SUM(ol_amount), MIN(ol_i_id) FROM bmsql_order_line WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?",
			vi(int64(w)), vi(int64(d)), vi(oID))
		if err != nil {
			return abort(err)
		}
		amount := sums[0][0].AsFloat()
		// Credit some customer of the district (the order's customer in
		// full TPC-C; uniformly random here).
		cu := rng.Intn(cfg.CustomersPerDistrict) + 1
		if err := c.exec("UPDATE bmsql_customer SET c_balance = c_balance + ? WHERE c_key = ? AND c_w_id = ?",
			vf(amount), vi(cfg.cKey(w, d, cu)), vi(int64(w))); err != nil {
			return abort(err)
		}
	}
	return c.exec("COMMIT")
}

// stockLevel counts low-stock items among a district's recent order lines
// (read only).
func (cfg config) stockLevel(c terminal, rng *rand.Rand) error {
	w := rng.Intn(cfg.Warehouses) + 1
	d := rng.Intn(cfg.DistrictsPerWarehouse) + 1
	threshold := 10 + rng.Intn(11)
	rows, err := c.query("SELECT d_next_o_id FROM bmsql_district WHERE d_key = ? AND d_w_id = ?",
		vi(cfg.dKey(w, d)), vi(int64(w)))
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		return fmt.Errorf("tpcc: district (%d,%d) missing", w, d)
	}
	nextO := rows[0][0].I
	lo := nextO - 20
	if lo < 1 {
		lo = 1
	}
	lines, err := c.query(
		"SELECT DISTINCT ol_i_id FROM bmsql_order_line WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id BETWEEN ? AND ?",
		vi(int64(w)), vi(int64(d)), vi(lo), vi(nextO))
	if err != nil {
		return err
	}
	for _, line := range lines {
		if _, err := c.query(
			"SELECT s_quantity FROM bmsql_stock WHERE s_key = ? AND s_w_id = ? AND s_quantity < ?",
			vi(int64(w*100000)+line[0].I), vi(int64(w)), vi(int64(threshold))); err != nil {
			return err
		}
	}
	return nil
}

// mix runs one transaction drawn from the standard TPC-C mix.
func (cfg config) mix(c terminal, rng *rand.Rand) error {
	p := rng.Intn(100)
	switch {
	case p < 45:
		return cfg.newOrder(c, rng)
	case p < 88:
		return cfg.payment(c, rng)
	case p < 92:
		return cfg.orderStatus(c, rng)
	case p < 96:
		return cfg.delivery(c, rng)
	default:
		return cfg.stockLevel(c, rng)
	}
}

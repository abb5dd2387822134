// E-commerce credit payments — modeled on the paper's JD Baitiao case
// study (Section VII-B): hash sharding on user id to kill hot spots,
// binding tables so the order/order-item join never goes cartesian, and
// XA transactions for payment consistency across data sources.
//
//	go run ./examples/ecommerce
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"shardingsphere/pkg/shardingdb"
)

const (
	sources = 4
	shards  = 8
	users   = 200
)

func main() {
	var dss []shardingdb.DataSourceConfig
	for i := 0; i < sources; i++ {
		dss = append(dss, shardingdb.DataSourceConfig{Name: fmt.Sprintf("ds%d", i)})
	}
	db, err := shardingdb.Open(shardingdb.Config{
		DataSources:            dss,
		MaxCon:                 4,
		DefaultTransactionType: "XA", // payments want 2PC
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	s := db.Session()
	defer s.Close()

	// Both tables shard by user id with the same algorithm and are bound:
	// the order ↔ item join stays shard-local (paper Section VI-B).
	resources := "ds0, ds1, ds2, ds3"
	for _, table := range []string{"t_order", "t_order_item"} {
		mustExec(s, fmt.Sprintf(`CREATE SHARDING TABLE RULE %s (
			RESOURCES(%s),
			SHARDING_COLUMN = user_id,
			TYPE = hash_mod,
			PROPERTIES("sharding-count" = %d)
		)`, table, resources, shards))
	}
	mustExec(s, "CREATE BINDING TABLE RULES (t_order, t_order_item)")

	mustExec(s, `CREATE TABLE t_order (
		order_id INT PRIMARY KEY, user_id INT NOT NULL,
		status VARCHAR(12), total FLOAT)`)
	mustExec(s, `CREATE TABLE t_order_item (
		item_id INT PRIMARY KEY, order_id INT, user_id INT NOT NULL,
		sku VARCHAR(20), price FLOAT)`)

	// Place orders inside XA transactions: the order row and its items may
	// live on different actual tables, and during shopping festivals a
	// torn order is not acceptable.
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	itemSeq := 0
	placed := 0
	for orderID := 1; orderID <= 500; orderID++ {
		user := rng.Intn(users)
		nItems := 1 + rng.Intn(4)
		err := s.WithTx(func(s *shardingdb.Session) error {
			total := 0.0
			for i := 0; i < nItems; i++ {
				itemSeq++
				price := 10 + rng.Float64()*90
				total += price
				if _, err := s.Exec(
					"INSERT INTO t_order_item (item_id, order_id, user_id, sku, price) VALUES (?, ?, ?, ?, ?)",
					shardingdb.Int(int64(itemSeq)), shardingdb.Int(int64(orderID)),
					shardingdb.Int(int64(user)), shardingdb.String(fmt.Sprintf("sku-%d", rng.Intn(50))),
					shardingdb.Float(price)); err != nil {
					return err
				}
			}
			_, err := s.Exec(
				"INSERT INTO t_order (order_id, user_id, status, total) VALUES (?, ?, 'paid', ?)",
				shardingdb.Int(int64(orderID)), shardingdb.Int(int64(user)), shardingdb.Float(total))
			return err
		})
		if err != nil {
			log.Fatal(err)
		}
		placed++
	}
	fmt.Printf("placed %d orders under XA\n", placed)

	// A user's order history: the bound tables are equated on their
	// sharding column, so the join routes pairwise, not cartesian.
	user := 42
	rows, err := s.QueryAll(`SELECT o.order_id, o.total, i.sku
		FROM t_order o JOIN t_order_item i ON o.user_id = i.user_id AND o.order_id = i.order_id
		WHERE o.user_id = ?
		ORDER BY o.order_id LIMIT 5`,
		shardingdb.Int(int64(user)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("user %d order lines (%d shown):\n", user, len(rows))
	for _, r := range rows {
		fmt.Printf("  order %v  total %.2f  %v\n", r[0], r[1].AsFloat(), r[2])
	}

	// Business dashboards aggregate across every shard.
	rows, err = s.QueryAll(`SELECT status, COUNT(*), SUM(total) FROM t_order GROUP BY status ORDER BY status`)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		fmt.Printf("status=%v orders=%v revenue=%.2f\n", r[0], r[1], r[2].AsFloat())
	}

	// Where would a hot user's traffic go? PREVIEW shows the plan.
	rows, _ = s.QueryAll("PREVIEW SELECT * FROM t_order WHERE user_id = 42")
	fmt.Printf("hot user routes to a single node: %v → %v\n", rows[0][0], rows[0][1])
}

func mustExec(s *shardingdb.Session, sql string) {
	if _, err := s.Exec(sql); err != nil {
		log.Fatal(err)
	}
}

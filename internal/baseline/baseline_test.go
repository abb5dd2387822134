package baseline

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"shardingsphere/internal/core"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/storage"
)

func fixture(t *testing.T) (*core.Kernel, *core.Kernel) {
	t.Helper()
	mkSources := func() map[string]*resource.DataSource {
		out := map[string]*resource.DataSource{}
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("ds%d", i)
			out[name] = resource.NewEmbedded(storage.NewEngine(name), nil)
		}
		return out
	}
	mkRules := func() *sharding.RuleSet {
		rs := sharding.NewRuleSet()
		rule, err := sharding.BuildAutoRule(sharding.AutoTableSpec{
			LogicTable: "t", Resources: []string{"ds0", "ds1"},
			ShardingColumn: "id", AlgorithmType: "MOD", ShardingCount: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		rs.AddRule(rule)
		return rs
	}
	smart, err := core.New(core.Config{Rules: mkRules(), Sources: mkSources()})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NaiveKernel(mkRules(), mkSources())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []*core.Kernel{smart, naive} {
		s := k.NewSession()
		if _, err := s.Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if _, err := s.Exec(fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", i, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return smart, naive
}

func TestNaiveProducesSameResults(t *testing.T) {
	smart, naive := fixture(t)
	queries := []string{
		"SELECT COUNT(*) FROM t",
		"SELECT v FROM t WHERE id = 7",
		"SELECT SUM(v) FROM t WHERE id BETWEEN 3 AND 9",
		"SELECT v FROM t ORDER BY id DESC LIMIT 4",
	}
	for _, q := range queries {
		a, err := smart.NewSession().Query(q)
		if err != nil {
			t.Fatalf("%s (smart): %v", q, err)
		}
		ra, _ := resource.ReadAll(a)
		b, err := naive.NewSession().Query(q)
		if err != nil {
			t.Fatalf("%s (naive): %v", q, err)
		}
		rb, _ := resource.ReadAll(b)
		if len(ra) != len(rb) {
			t.Fatalf("%s: %v vs %v", q, ra, rb)
		}
		for i := range ra {
			if ra[i].String() != rb[i].String() {
				t.Fatalf("%s row %d: %v vs %v", q, i, ra[i], rb[i])
			}
		}
	}
}

func TestNaiveBroadcastsPointQueries(t *testing.T) {
	_, naive := fixture(t)
	stmt, err := sqlparser.Parse("SELECT v FROM t WHERE id = 7")
	if err != nil {
		t.Fatal(err)
	}
	// Run the naive transform, then route: it must hit all 4 nodes.
	var nf blindRouting
	transformed, _, err := nf.TransformStatement(stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := naive.Router().Route(transformed, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Units) != 4 {
		t.Fatalf("naive point query hit %d nodes, want 4", len(rt.Units))
	}
}

func TestSmartRoutesPointQueries(t *testing.T) {
	smart, _ := fixture(t)
	stmt, _ := sqlparser.Parse("SELECT v FROM t WHERE id = 7")
	rt, err := smart.Router().Route(stmt, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Units) != 1 {
		t.Fatalf("smart point query hit %d nodes, want 1", len(rt.Units))
	}
}

func TestNaiveInsertsStillPlaceRows(t *testing.T) {
	_, naive := fixture(t)
	// Each shard got only its own rows (20 rows over 4 shards of MOD 4).
	for i := 0; i < 2; i++ {
		src, _ := naive.Executor().Source(fmt.Sprintf("ds%d", i))
		conn, _ := src.Acquire()
		rs, err := conn.Query(context.Background(), "SHOW TABLES")
		if err != nil {
			t.Fatal(err)
		}
		tables, _ := resource.ReadAll(rs)
		for _, tr := range tables {
			crs, _ := conn.Query(context.Background(), "SELECT COUNT(*) FROM "+tr[0].S)
			cnt, _ := resource.ReadAll(crs)
			if cnt[0][0].I != 5 {
				t.Fatalf("%s.%s holds %d rows, want 5", fmt.Sprintf("ds%d", i), tr[0].S, cnt[0][0].I)
			}
		}
		conn.Release()
	}
}

func TestSingleNode(t *testing.T) {
	k, engine, err := NewSingleNode("ms", sqlparser.DialectMySQL)
	if err != nil {
		t.Fatal(err)
	}
	s := k.NewSession()
	if _, err := s.Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO t VALUES (1, 10)"); err != nil {
		t.Fatal(err)
	}
	rs, err := s.Query("SELECT v FROM t WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := resource.ReadAll(rs)
	if rows[0][0].I != 10 {
		t.Fatalf("single node: %v", rows)
	}
	if engine.Stats().Rows != 1 {
		t.Fatalf("engine stats: %+v", engine.Stats())
	}
	if !strings.Contains(engine.Name(), "ms") {
		t.Fatal("name lost")
	}
}

func TestNaiveDMLParity(t *testing.T) {
	smart, naive := fixture(t)
	for _, k := range []*core.Kernel{smart, naive} {
		s := k.NewSession()
		if _, err := s.Exec("UPDATE t SET v = v + 100 WHERE id BETWEEN 5 AND 8"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exec("DELETE FROM t WHERE id = 19"); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		"SELECT SUM(v) FROM t",
		"SELECT COUNT(*) FROM t",
		"SELECT v FROM t WHERE id = 6",
	} {
		a, _ := smart.NewSession().Query(q)
		ra, _ := resource.ReadAll(a)
		b, _ := naive.NewSession().Query(q)
		rb, _ := resource.ReadAll(b)
		if len(ra) != len(rb) || ra[0].String() != rb[0].String() {
			t.Fatalf("%s: %v vs %v", q, ra, rb)
		}
	}
}

func TestNaiveTransactions(t *testing.T) {
	_, naive := fixture(t)
	s := naive.NewSession()
	if _, err := s.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("UPDATE t SET v = 0"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	rs, _ := naive.NewSession().Query("SELECT SUM(v) FROM t")
	rows, _ := resource.ReadAll(rs)
	if rows[0][0].I == 0 {
		t.Fatalf("naive rollback lost: %v", rows)
	}
}

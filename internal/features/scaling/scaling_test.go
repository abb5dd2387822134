package scaling

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"shardingsphere/internal/core"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sharding"
	"shardingsphere/internal/storage"
)

// fixture: t_user sharded 2 ways over ds0/ds1, 100 rows, and a spare ds2.
func fixture(t *testing.T) *core.Kernel {
	t.Helper()
	rules := sharding.NewRuleSet()
	sources := map[string]*resource.DataSource{}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("ds%d", i)
		sources[name] = resource.NewEmbedded(storage.NewEngine(name), nil)
	}
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
	k, err := core.New(core.Config{Rules: rules, Sources: sources})
	if err != nil {
		t.Fatal(err)
	}
	s := k.NewSession()
	if _, err := s.Exec("CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(32))"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO t_user (uid, name) VALUES (%d, 'u%d')", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	return k
}

func count(t *testing.T, k *core.Kernel) int64 {
	t.Helper()
	s := k.NewSession()
	rs, err := s.Query("SELECT COUNT(*) FROM t_user")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := resource.ReadAll(rs)
	if err != nil {
		t.Fatal(err)
	}
	return rows[0][0].I
}

func TestReshardToMoreShards(t *testing.T) {
	k := fixture(t)
	if count(t, k) != 100 {
		t.Fatal("seed failed")
	}
	job, err := Reshard(k, sharding.AutoTableSpec{
		LogicTable:     "t_user",
		Resources:      []string{"ds0", "ds1", "ds2"},
		ShardingColumn: "uid",
		AlgorithmType:  "MOD",
		ShardingCount:  6,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, moved, jerr := job.Status()
	if st != StatusCompleted || jerr != nil {
		t.Fatalf("job: %v %v", st, jerr)
	}
	if moved != 100 {
		t.Fatalf("moved: %d", moved)
	}
	// All data still visible through the swapped rule.
	if count(t, k) != 100 {
		t.Fatalf("post-reshard count: %d", count(t, k))
	}
	// Point queries still resolve correctly.
	s := k.NewSession()
	rs, err := s.Query("SELECT name FROM t_user WHERE uid = 57")
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := resource.ReadAll(rs)
	if len(rows) != 1 || rows[0][0].S != "u57" {
		t.Fatalf("point query after reshard: %v", rows)
	}
	// Rule really has 6 nodes across 3 sources now.
	rule, _ := k.Rules().Rule("t_user")
	sources := map[string]bool{}
	for _, n := range rule.DataNodes {
		sources[n.DataSource] = true
	}
	if len(rule.DataNodes) != 6 || len(sources) != 3 {
		t.Fatalf("rule after swap: %+v", rule.DataNodes)
	}
	// New tables carry the generation tag; old tables are gone.
	src, _ := k.Executor().Source("ds0")
	conn, _ := src.Acquire()
	defer conn.Release()
	if _, err := conn.Query(context.Background(), "SELECT COUNT(*) FROM t_user_0"); err == nil {
		t.Fatal("old actual table not dropped")
	}
	if _, err := conn.Query(context.Background(), "SELECT COUNT(*) FROM t_user_g1_0"); err != nil {
		t.Fatalf("new actual table missing: %v", err)
	}
}

func TestReshardUnknownTable(t *testing.T) {
	k := fixture(t)
	_, err := Reshard(k, sharding.AutoTableSpec{
		LogicTable: "missing", Resources: []string{"ds0"},
		ShardingColumn: "id", AlgorithmType: "MOD", ShardingCount: 2,
	}, 1)
	if err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestReshardDistributesData(t *testing.T) {
	k := fixture(t)
	if _, err := Reshard(k, sharding.AutoTableSpec{
		LogicTable:     "t_user",
		Resources:      []string{"ds0", "ds1", "ds2"},
		ShardingColumn: "uid",
		AlgorithmType:  "MOD",
		ShardingCount:  3,
	}, 2); err != nil {
		t.Fatal(err)
	}
	// Each source holds ~1/3 of the rows.
	for i := 0; i < 3; i++ {
		src, _ := k.Executor().Source(fmt.Sprintf("ds%d", i))
		conn, _ := src.Acquire()
		rs, err := conn.Query(context.Background(), fmt.Sprintf("SELECT COUNT(*) FROM t_user_g2_%d", i))
		if err != nil {
			t.Fatalf("ds%d: %v", i, err)
		}
		rows, _ := resource.ReadAll(rs)
		conn.Release()
		if n := rows[0][0].I; n < 30 || n > 36 {
			t.Fatalf("ds%d shard size: %d", i, n)
		}
	}
}

// TestSwitchIsCompareAndPublish: the switch publishes the new rule only
// over the rule the job copied. A rule replaced or dropped since (an ALTER
// or DROP SHARDING TABLE RULE during the copy) stays as it is.
func TestSwitchIsCompareAndPublish(t *testing.T) {
	k := fixture(t)
	oldRule, _ := k.Rules().Rule("t_user")
	spec := func(count int) sharding.AutoTableSpec {
		return sharding.AutoTableSpec{
			LogicTable: "t_user", Resources: []string{"ds0", "ds1"},
			ShardingColumn: "uid", AlgorithmType: "MOD", ShardingCount: count,
		}
	}
	newRule, err := sharding.BuildAutoRule(spec(4))
	if err != nil {
		t.Fatal(err)
	}
	altered, err := sharding.BuildAutoRule(spec(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Publish(func(rs *sharding.RuleSet) error { rs.AddRule(altered); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := switchRule(k, oldRule, newRule); !errors.Is(err, ErrRuleChanged) {
		t.Fatalf("switch over a replaced rule: %v", err)
	}
	if got, _ := k.Rules().Rule("t_user"); got != altered {
		t.Fatal("the switch overwrote the replacement")
	}
	if err := k.Publish(func(rs *sharding.RuleSet) error { rs.RemoveRule("t_user"); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := switchRule(k, altered, newRule); !errors.Is(err, ErrRuleChanged) {
		t.Fatalf("switch over a dropped rule: %v", err)
	}
	if k.Rules().IsSharded("t_user") {
		t.Fatal("the switch brought a dropped rule back")
	}
	// Over the rule it copied, the switch publishes.
	if err := k.Publish(func(rs *sharding.RuleSet) error { rs.AddRule(oldRule); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := switchRule(k, oldRule, newRule); err != nil {
		t.Fatal(err)
	}
	if got, _ := k.Rules().Rule("t_user"); got != newRule {
		t.Fatal("the switch did not publish the new rule")
	}
}

// TestFailedJobDropsItsTables: a job that fails after creating its target
// tables drops them and leaves the table's rule and rows alone.
func TestFailedJobDropsItsTables(t *testing.T) {
	k := fixture(t)
	before, _ := k.Rules().Rule("t_user")
	job, err := Reshard(k, sharding.AutoTableSpec{
		LogicTable: "t_user", Resources: []string{"ds0", "ds1"},
		ShardingColumn: "no_such_column", AlgorithmType: "MOD", ShardingCount: 4,
	}, 1)
	if err == nil {
		t.Fatal("a copy by a missing column succeeded")
	}
	if st, _, _ := job.Status(); st != StatusFailed {
		t.Fatalf("job status: %v", st)
	}
	if after, _ := k.Rules().Rule("t_user"); after != before {
		t.Fatal("a failed job changed the rule")
	}
	for i := 0; i < 4; i++ {
		src, _ := k.Executor().Source(fmt.Sprintf("ds%d", i%2))
		conn, _ := src.Acquire()
		_, err := conn.Query(context.Background(), fmt.Sprintf("SELECT COUNT(*) FROM t_user_g1_%d", i))
		conn.Release()
		if err == nil {
			t.Fatalf("target table t_user_g1_%d left behind", i)
		}
	}
	if n := count(t, k); n != 100 {
		t.Fatalf("rows after a failed job: %d", n)
	}
}

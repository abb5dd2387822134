package governor

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"shardingsphere/internal/exec"
	"shardingsphere/internal/registry"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
)

func fixture(t *testing.T) (*Governor, *registry.Registry, *exec.Executor) {
	t.Helper()
	reg := registry.New()
	sources := map[string]*resource.DataSource{}
	for i := 0; i < 2; i++ {
		eng := storage.NewEngine(fmt.Sprintf("ds%d", i))
		sources[eng.Name()] = resource.NewEmbedded(eng, nil)
	}
	e := exec.New(sources, 1)
	return New(reg, e), reg, e
}

func TestPersistAndLoadRules(t *testing.T) {
	g, _, _ := fixture(t)
	rs := sharding.NewRuleSet()
	rs.DefaultDataSource = "ds0"
	rs.Broadcast["t_dict"] = true
	for _, table := range []string{"t_user", "t_order"} {
		rule, err := sharding.BuildAutoRule(sharding.AutoTableSpec{
			LogicTable:     table,
			Resources:      []string{"ds0", "ds1"},
			ShardingColumn: "uid",
			AlgorithmType:  "MOD",
			ShardingCount:  4,
		})
		if err != nil {
			t.Fatal(err)
		}
		rs.AddRule(rule)
	}
	if err := rs.AddBindingGroup("t_user", "t_order"); err != nil {
		t.Fatal(err)
	}
	if err := g.PersistRules(rs); err != nil {
		t.Fatal(err)
	}

	loaded, err := g.LoadRules()
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.IsSharded("t_user") || !loaded.IsSharded("t_order") {
		t.Fatal("rules lost")
	}
	rule, _ := loaded.Rule("t_user")
	if len(rule.DataNodes) != 4 || rule.DataNodes[1].DataSource != "ds1" {
		t.Fatalf("nodes: %v", rule.DataNodes)
	}
	if !loaded.Bound("t_user", "t_order") {
		t.Fatal("binding lost")
	}
	if !loaded.Broadcast["t_dict"] {
		t.Fatal("broadcast lost")
	}
	if loaded.DefaultDataSource != "ds0" {
		t.Fatalf("default ds: %q", loaded.DefaultDataSource)
	}
	// Routing still works on the reloaded rules (algorithm rebuilt).
	nodes, err := rule.NodeIndex().Route([]sharding.Condition{{Values: []sqltypes.Value{sqltypes.NewInt(6)}}}, nil)
	if err != nil || len(nodes) != 1 || nodes[0].Table != "t_user_2" {
		t.Fatalf("reloaded route: %v %v", nodes, err)
	}
}

// TestLoadRulesKeepsPersistedNodes: a reloaded rule routes to the data
// nodes that were persisted (a RESHARD's "<t>_g<gen>_<i>" tables), not to
// the ones its spec would lay out; nodes that cannot belong to the spec
// are refused.
func TestLoadRulesKeepsPersistedNodes(t *testing.T) {
	g, _, _ := fixture(t)
	spec := sharding.AutoTableSpec{
		LogicTable: "t", Resources: []string{"ds0", "ds1"},
		ShardingColumn: "id", AlgorithmType: "MOD", ShardingCount: 4,
	}
	persist := func(edit func([]sharding.DataNode) []sharding.DataNode) (*sharding.RuleSet, error) {
		rule, err := sharding.BuildAutoRule(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rule.DataNodes {
			rule.DataNodes[i].Table = fmt.Sprintf("t_g1_%d", i)
		}
		rule.DataNodes = edit(rule.DataNodes)
		rs := sharding.NewRuleSet()
		rs.AddRule(rule)
		if err := g.PersistRules(rs); err != nil {
			t.Fatal(err)
		}
		return g.LoadRules()
	}
	same := func(n []sharding.DataNode) []sharding.DataNode { return n }
	loaded, err := persist(same)
	if err != nil {
		t.Fatal(err)
	}
	rule, _ := loaded.Rule("t")
	if len(rule.DataNodes) != 4 || rule.DataNodes[3] != (sharding.DataNode{DataSource: "ds1", Table: "t_g1_3"}) {
		t.Fatalf("reloaded nodes: %v", rule.DataNodes)
	}
	nodes, err := rule.NodeIndex().Route([]sharding.Condition{{Values: []sqltypes.Value{sqltypes.NewInt(6)}}}, nil)
	if err != nil || len(nodes) != 1 || nodes[0].Table != "t_g1_2" {
		t.Fatalf("reloaded route: %v %v", nodes, err)
	}
	for name, edit := range map[string]func([]sharding.DataNode) []sharding.DataNode{
		"short":          func(n []sharding.DataNode) []sharding.DataNode { return n[:3] },
		"other resource": func(n []sharding.DataNode) []sharding.DataNode { n[1].DataSource = "ds9"; return n },
	} {
		if _, err := persist(edit); err == nil {
			t.Errorf("%s: persisted nodes accepted", name)
		}
	}
}

func TestDropRule(t *testing.T) {
	g, reg, _ := fixture(t)
	rs := sharding.NewRuleSet()
	rule, _ := sharding.BuildAutoRule(sharding.AutoTableSpec{
		LogicTable: "t", Resources: []string{"ds0"},
		ShardingColumn: "id", AlgorithmType: "MOD", ShardingCount: 2,
	})
	rs.AddRule(rule)
	g.PersistRules(rs)
	if len(reg.List("/config/rules")) != 1 {
		t.Fatal("rule not persisted")
	}
	g.DropRule("t")
	if len(reg.List("/config/rules")) != 0 {
		t.Fatal("rule not dropped")
	}
}

func TestInstanceRegistration(t *testing.T) {
	g, reg, _ := fixture(t)
	sess := reg.NewSession()
	if err := g.RegisterInstance(sess, "proxy-1", "proxy"); err != nil {
		t.Fatal(err)
	}
	if got := g.Instances(); len(got) != 1 || got[0] != "proxy-1" {
		t.Fatalf("instances: %v", got)
	}
	sess.Close()
	if got := g.Instances(); len(got) != 0 {
		t.Fatalf("dead instance lingers: %v", got)
	}
}

func TestHealthCheckMarksUp(t *testing.T) {
	g, _, _ := fixture(t)
	down := g.CheckOnce()
	if len(down) != 0 {
		t.Fatalf("healthy sources marked down: %v", down)
	}
	if g.SourceStatus("ds0") != "up" {
		t.Fatalf("status: %s", g.SourceStatus("ds0"))
	}
}

func TestBreakerOpensAfterFailures(t *testing.T) {
	b := &Breaker{threshold: 3, coolDown: 50 * time.Millisecond}
	err := errors.New("boom")
	if !b.Allow() {
		t.Fatal("breaker should start closed")
	}
	b.Observe(err)
	b.Observe(err)
	if !b.Allow() {
		t.Fatal("breaker opened too early")
	}
	b.Observe(err)
	if b.Allow() {
		t.Fatal("breaker should be open")
	}
	// Half-open after cool-down.
	time.Sleep(60 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker should half-open")
	}
	b.Observe(nil)
	if !b.Allow() {
		t.Fatal("breaker should close after success")
	}
}

func TestBreakerForce(t *testing.T) {
	b := &Breaker{threshold: 3, coolDown: time.Minute}
	b.Force(true)
	if b.Allow() {
		t.Fatal("forced breaker must block")
	}
	b.Force(false)
	if !b.Allow() {
		t.Fatal("released breaker must pass")
	}
}

func TestGovernorManualBreak(t *testing.T) {
	g, _, _ := fixture(t)
	g.BreakSource("ds1", true)
	if g.Allow("ds1") {
		t.Fatal("broken source allowed")
	}
	if g.SourceStatus("ds1") != "down" {
		t.Fatalf("status: %s", g.SourceStatus("ds1"))
	}
	g.BreakSource("ds1", false)
	if !g.Allow("ds1") {
		t.Fatal("restored source blocked")
	}
}

func TestRateLimiter(t *testing.T) {
	l := NewRateLimiter(1000, 2)
	if !l.Acquire() || !l.Acquire() {
		t.Fatal("burst tokens missing")
	}
	if l.Acquire() {
		t.Fatal("burst exceeded")
	}
	time.Sleep(5 * time.Millisecond) // refill at 1000/s
	if !l.Acquire() {
		t.Fatal("tokens did not refill")
	}
}

func TestHealthCheckLoopStops(t *testing.T) {
	g, _, _ := fixture(t)
	g.StartHealthCheck(10 * time.Millisecond)
	time.Sleep(30 * time.Millisecond)
	g.Stop()
	g.Stop() // idempotent
	if g.SourceStatus("ds0") != "up" {
		t.Fatalf("loop never ran: %s", g.SourceStatus("ds0"))
	}
}

func TestSubscribeNotifiesOnFlip(t *testing.T) {
	g, _, _ := fixture(t)
	var events []string
	g.Subscribe(func(ds string, up bool) {
		events = append(events, fmt.Sprintf("%s=%v", ds, up))
	})
	g.CheckOnce() // both up → two initial events
	if len(events) != 2 {
		t.Fatalf("initial events: %v", events)
	}
	g.CheckOnce() // no flips → no new events
	if len(events) != 2 {
		t.Fatalf("redundant events: %v", events)
	}
	g.BreakSource("ds1", true) // flips ds1 down
	if len(events) != 3 || events[2] != "ds1=false" {
		t.Fatalf("flip events: %v", events)
	}
}

func TestWatchConfigFiresAndCancels(t *testing.T) {
	g, reg, _ := fixture(t)
	fired := make(chan struct{}, 8)
	cancel := g.WatchConfig(func() { fired <- struct{}{} })
	reg.Put("/config/rules/t_user", "{}")
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("config change did not reach the watcher")
	}
	// Unrelated paths do not fire.
	reg.Put("/status/sources/ds0", "up")
	select {
	case <-fired:
		t.Fatal("non-config change fired the watcher")
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	reg.Put("/config/rules/t_user", "{}")
	select {
	case <-fired:
		t.Fatal("watcher fired after cancel")
	case <-time.After(20 * time.Millisecond):
	}
}

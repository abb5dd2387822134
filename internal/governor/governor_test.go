package governor

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"shardingsphere/internal/chaos"
	"shardingsphere/internal/registry"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
)

func fixture(t *testing.T) (*Governor, *registry.Registry, map[string]*resource.DataSource) {
	t.Helper()
	reg := registry.New()
	sources := map[string]*resource.DataSource{}
	for i := 0; i < 2; i++ {
		eng := storage.NewEngine(fmt.Sprintf("ds%d", i))
		sources[eng.Name()] = resource.NewEmbedded(eng, nil)
	}
	return New(reg, sources), reg, sources
}

// testBreaker is a breaker its governor opens after threshold failures and
// keeps open for coolDown.
func testBreaker(threshold int, coolDown time.Duration) *Breaker {
	g := New(registry.New(), map[string]*resource.DataSource{"ds0": nil})
	g.BreakThreshold, g.CoolDown = threshold, coolDown
	return g.Breaker("ds0")
}

// allowed asks b whether a statement may run, as Admit does.
func allowed(b *Breaker) bool {
	ok, _ := b.allow()
	return ok
}

// TestPersistAndLoadRules: the rule set round-trips through the one
// configuration document — rules, bindings, broadcast tables, the default
// source and the catalog — at the version it was written as; a version
// written on a stale one is refused, and a rule removed from the set is
// gone from the document.
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
	def := &sharding.TableDef{Columns: sqltypes.Schema{{Name: "uid", Type: sqltypes.KindString}, {Name: "v", Type: sqltypes.KindInt}}, PrimaryKey: []string{"uid"}}
	rs.Define("t_user", def)
	v, err := g.SaveRules(rs)
	if err != nil || v != 1 {
		t.Fatalf("first version %d, %v", v, err)
	}

	loaded, err := g.LoadRules()
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Version != 1 {
		t.Fatalf("loaded version %d, want 1", loaded.Version)
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
	if got := loaded.Def("t_user"); got == nil || !reflect.DeepEqual(*got, *def) {
		t.Fatalf("definition: %+v, want %+v", got, def)
	}
	// Routing still works on the reloaded rules (algorithm rebuilt).
	nodes, err := rule.NodeIndex().Route([]sharding.Condition{{Values: []sqltypes.Value{sqltypes.NewInt(6)}}}, nil)
	if err != nil || len(nodes) != 1 || nodes[0].Table != "t_user_2" {
		t.Fatalf("reloaded route: %v %v", nodes, err)
	}

	// A write on the version the set was read at lands; one on an older
	// version does not.
	next := loaded.Clone()
	next.RemoveRule("t_order")
	if _, err := g.SaveRules(rs); !errors.Is(err, registry.ErrVersionConflict) {
		t.Fatalf("write on a stale version: %v", err)
	}
	if v, err := g.SaveRules(next); err != nil || v != 2 {
		t.Fatalf("second version %d, %v", v, err)
	}
	if loaded, err = g.LoadRules(); err != nil || loaded.IsSharded("t_order") || !loaded.IsSharded("t_user") || loaded.Version != 2 {
		t.Fatalf("after the removal: %v, %v", loaded, err)
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
	var version int64
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
		rs.Version = version
		if version, err = g.SaveRules(rs); err != nil {
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

func TestInstanceRegistration(t *testing.T) {
	g, reg, _ := fixture(t)
	sess := reg.NewSession()
	if err := g.RegisterInstance(sess, "proxy-1"); err != nil {
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
	g.CheckOnce()
	for ds, st := range g.BreakerStates() {
		if st != BreakerClosed {
			t.Fatalf("healthy source %s marked %s", ds, st)
		}
	}
	if g.probes.Load() != 2 || g.probeFailures.Load() != 0 {
		t.Fatalf("probes %d, failed %d, want 2 and 0", g.probes.Load(), g.probeFailures.Load())
	}
}

func TestBreakerOpensAfterFailures(t *testing.T) {
	b := testBreaker(3, 50*time.Millisecond)
	err := errors.New("boom")
	if !allowed(b) {
		t.Fatal("breaker should start closed")
	}
	b.observe(err)
	b.observe(err)
	if !allowed(b) {
		t.Fatal("breaker opened too early")
	}
	b.observe(err)
	if allowed(b) {
		t.Fatal("breaker should be open")
	}
	// Half-open after cool-down.
	time.Sleep(60 * time.Millisecond)
	if !allowed(b) {
		t.Fatal("breaker should half-open")
	}
	b.observe(nil)
	if !allowed(b) {
		t.Fatal("breaker should close after success")
	}
}

func TestBreakerForce(t *testing.T) {
	b := testBreaker(3, time.Minute)
	b.force(true)
	if allowed(b) {
		t.Fatal("forced breaker must block")
	}
	b.force(false)
	if !allowed(b) {
		t.Fatal("released breaker must pass")
	}
}

func TestGovernorManualBreak(t *testing.T) {
	g, _, _ := fixture(t)
	if err := g.BreakSource("ds1", true); err != nil {
		t.Fatal(err)
	}
	if ds, ok := g.Admit([]string{"ds0", "ds1"}); ok || ds != "ds1" {
		t.Fatal("broken source allowed")
	}
	if st := g.BreakerStates()["ds1"]; st != BreakerOpen || g.Calm() {
		t.Fatalf("status: %s, calm %v", st, g.Calm())
	}
	g.BreakSource("ds1", false)
	if _, ok := g.Admit([]string{"ds1"}); !ok || !g.Calm() {
		t.Fatalf("restored source blocked, calm %v", g.Calm())
	}
	// A counted failure disturbs the calm until a success clears it.
	g.Breaker("ds0").observe(errors.New("boom"))
	if g.Calm() {
		t.Fatal("calm with a failure counted")
	}
	g.Breaker("ds0").Report(nil)
	if !g.Calm() {
		t.Fatal("a success left the governor disturbed")
	}
	// A name that is not a source is refused with the names that are, and
	// gets no breaker.
	err := g.BreakSource("dsX", true)
	if err == nil || !strings.Contains(err.Error(), "ds0, ds1") {
		t.Fatalf("unknown source: %v", err)
	}
	if _, ok := g.BreakerStates()["dsX"]; ok {
		t.Fatal("an unknown source got a breaker")
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
	g.StartHealthCheck(time.Millisecond)
	for g.probes.Load() < 2 {
		runtime.Gosched()
	}
	g.Stop()
	g.Stop() // idempotent
	n := g.probes.Load()
	if st := g.BreakerStates()["ds0"]; st != BreakerClosed || g.probeFailures.Load() != 0 {
		t.Fatalf("loop probed %d times, %d failed: %s", n, g.probeFailures.Load(), st)
	}
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	if g.probes.Load() != n {
		t.Fatal("the loop probed after Stop returned")
	}
}

// TestStopWaitsForTheHealthLoop: with every source hung, the loop's first
// probe blocks for its whole ProbeTimeout. Stop cancels it and returns only
// once the loop has returned, so no probe is in flight after Stop and the
// cancelled one published nothing. A Stop that only signalled the loop
// returned with the probe still hanging.
func TestStopWaitsForTheHealthLoop(t *testing.T) {
	g, _, sources := fixture(t)
	g.ProbeTimeout = time.Hour
	faults := chaos.NewInjector()
	for _, src := range sources {
		faults.Apply(src, chaos.Fault{Hang: true})
	}
	g.StartHealthCheck(time.Millisecond)
	for g.probes.Load() == 0 {
		runtime.Gosched()
	}
	g.Stop()
	if n, failed := g.probes.Load(), g.probeFailures.Load(); n != failed {
		t.Fatalf("%d probes started and %d ended when Stop returned", n, failed)
	}
	for ds, st := range g.BreakerStates() {
		if st != BreakerClosed || g.breakers[ds].disturbed.Load() {
			t.Fatalf("a cancelled probe counted against %s: %s", ds, st)
		}
	}
}

// TestBreakerCountsTransitionsOnly: breaker.<ds>.opens and .closes count
// moves, not outcomes. Healthy probes, a failure below the threshold, the
// success that resets it and a failure reported to an open breaker move
// nothing; the opening by failures counts once, and so does the close by
// the probe statement's success.
func TestBreakerCountsTransitionsOnly(t *testing.T) {
	g, _, _ := fixture(t)
	moves := func() string {
		m := g.ResilienceMetrics()
		return fmt.Sprintf("opens %d, closes %d", m["breaker.ds0.opens"], m["breaker.ds0.closes"])
	}
	g.CheckOnce()
	g.CheckOnce()
	b := g.Breaker("ds0")
	transient := errors.New("read tcp: connection reset by peer")
	b.Report(transient)
	b.Report(nil)
	if got := moves(); got != "opens 0, closes 0" {
		t.Fatalf("without a transition: %s", got)
	}
	for i := 0; i < g.BreakThreshold; i++ {
		b.Report(transient)
	}
	b.Report(transient)
	if got := moves(); got != "opens 1, closes 0" {
		t.Fatalf("after the opening: %s", got)
	}
	g.CoolDown = 0
	if _, ok := g.Admit([]string{"ds0"}); !ok {
		t.Fatal("the open breaker refused its probe past the cool-down")
	}
	b.Report(nil)
	b.Report(nil)
	if got := moves(); got != "opens 1, closes 1" {
		t.Fatalf("after the close: %s", got)
	}
}

// TestManualBreakCountsTransitions: a manual break and release move the
// breaker as failures and a probe's success do, and count as they do:
// breaking a closed breaker is one open, releasing it one close, and a
// second break of a broken breaker moves nothing.
func TestManualBreakCountsTransitions(t *testing.T) {
	g, _, _ := fixture(t)
	moves := func() string {
		m := g.ResilienceMetrics()
		return fmt.Sprintf("opens %d, closes %d, state %d", m["breaker.ds1.opens"], m["breaker.ds1.closes"], m["breaker.ds1.state"])
	}
	g.BreakSource("ds1", true)
	g.BreakSource("ds1", true)
	if got := moves(); got != "opens 1, closes 0, state 1" {
		t.Fatalf("after the break: %s", got)
	}
	g.BreakSource("ds1", false)
	if got := moves(); got != "opens 1, closes 1, state 0" {
		t.Fatalf("after the release: %s", got)
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
	reg.Put("/instances/proxy-1", "")
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

package distsql

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"shardingsphere/internal/core"
	"shardingsphere/internal/governor"
	"shardingsphere/internal/registry"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sights"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
	"shardingsphere/internal/transaction"
)

func fixture(t *testing.T) (*core.Kernel, *core.Session, *governor.Governor) {
	t.Helper()
	sources := map[string]*resource.DataSource{}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("ds%d", i)
		sources[name] = resource.NewEmbedded(storage.NewEngine(name), nil)
	}
	reg := registry.New()
	k, err := core.New(core.Config{Sources: sources, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(Install(k).Close)
	return k, k.NewSession(), k.Governor()
}

func exec(t *testing.T, s *core.Session, sql string) *core.Result {
	t.Helper()
	res, err := s.Execute(sql)
	if err != nil {
		t.Fatalf("Execute(%q): %v", sql, err)
	}
	return res
}

// replans runs sql, a shape whose plan k keeps, twice on s and returns
// the plan-cache misses each run counted: {1, 0} after a rule publication
// (the stale plan is compiled again, then served), {0, 0} without one.
func replans(t *testing.T, k *core.Kernel, s *core.Session, sql string) [2]uint64 {
	t.Helper()
	var got [2]uint64
	for i := range got {
		before := k.PlanCache().Stats().Misses
		rows(t, exec(t, s, sql))
		got[i] = k.PlanCache().Stats().Misses - before
	}
	return got
}

func rows(t *testing.T, res *core.Result) []sqltypes.Row {
	t.Helper()
	if !res.IsQuery() {
		t.Fatal("expected rows")
	}
	out, err := resource.ReadAll(res.RS)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// metrics reads SHOW METRICS by name: a counter's value, a histogram's
// count.
func metrics(t *testing.T, s *core.Session) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for _, r := range rows(t, exec(t, s, "SHOW METRICS")) {
		if r[1].S == "histogram" {
			out[r[2].S] = r[3].I
		} else {
			out[r[2].S] = r[6].I
		}
	}
	return out
}

const createUserRule = `CREATE SHARDING TABLE RULE t_user (
	RESOURCES(ds0, ds1),
	SHARDING_COLUMN = uid,
	TYPE = hash_mod,
	PROPERTIES("sharding-count" = 4)
)`

func TestCreateShardingRuleAndUse(t *testing.T) {
	k, s, _ := fixture(t)
	exec(t, s, createUserRule)
	if !k.Rules().IsSharded("t_user") {
		t.Fatal("rule not registered")
	}
	rule, _ := k.Rules().Rule("t_user")
	if len(rule.DataNodes) != 4 {
		t.Fatalf("nodes: %v", rule.DataNodes)
	}
	// The logic DDL materializes the physical shards; data flows through
	// the new rule end-to-end.
	exec(t, s, "CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(32))")
	for i := 0; i < 20; i++ {
		exec(t, s, fmt.Sprintf("INSERT INTO t_user (uid, name) VALUES (%d, 'u%d')", i, i))
	}
	res := exec(t, s, "SELECT COUNT(*) FROM t_user")
	if got := rows(t, res); got[0][0].I != 20 {
		t.Fatalf("count: %v", got)
	}
	// hash_mod spread the rows across both sources.
	for _, dsName := range []string{"ds0", "ds1"} {
		src, _ := k.Executor().Source(dsName)
		conn, _ := src.Acquire()
		rs, err := conn.Query(context.Background(), "SHOW TABLES")
		if err != nil {
			t.Fatal(err)
		}
		shards, _ := resource.ReadAll(rs)
		conn.Release()
		if len(shards) != 2 {
			t.Fatalf("%s shards: %v", dsName, shards)
		}
	}
}

func TestCreateRuleDuplicateNeedsAlter(t *testing.T) {
	_, s, _ := fixture(t)
	exec(t, s, createUserRule)
	if _, err := s.Execute(createUserRule); err == nil {
		t.Fatal("duplicate rule accepted")
	}
	alter := strings.Replace(createUserRule, "CREATE", "ALTER", 1)
	exec(t, s, alter)
}

func TestCreateRuleUnknownResource(t *testing.T) {
	_, s, _ := fixture(t)
	bad := strings.Replace(createUserRule, "ds1", "nope", 1)
	if _, err := s.Execute(bad); err == nil {
		t.Fatal("unknown resource accepted")
	}
}

func TestDropShardingRule(t *testing.T) {
	k, s, _ := fixture(t)
	exec(t, s, createUserRule)
	exec(t, s, "DROP SHARDING TABLE RULE t_user")
	if k.Rules().IsSharded("t_user") {
		t.Fatal("rule survived drop")
	}
	if _, err := s.Execute("DROP SHARDING TABLE RULE t_user"); err == nil {
		t.Fatal("double drop accepted")
	}
}

func TestBindingRules(t *testing.T) {
	k, s, _ := fixture(t)
	exec(t, s, createUserRule)
	exec(t, s, strings.Replace(createUserRule, "t_user", "t_order", 1))
	exec(t, s, "CREATE BINDING TABLE RULES (t_user, t_order)")
	if !k.Rules().Bound("t_user", "t_order") {
		t.Fatal("binding not registered")
	}
	res := exec(t, s, "SHOW BINDING TABLE RULES")
	if got := rows(t, res); len(got) != 1 {
		t.Fatalf("show binding: %v", got)
	}
	exec(t, s, "DROP BINDING TABLE RULES (t_user, t_order)")
	if k.Rules().Bound("t_user", "t_order") {
		t.Fatal("binding survived drop")
	}
}

func TestBroadcastRule(t *testing.T) {
	k, s, _ := fixture(t)
	exec(t, s, "CREATE BROADCAST TABLE RULE t_dict, t_config")
	if !k.Rules().Broadcast["t_dict"] || !k.Rules().Broadcast["t_config"] {
		t.Fatal("broadcast not registered")
	}
	res := exec(t, s, "SHOW BROADCAST TABLE RULES")
	if got := rows(t, res); len(got) != 2 {
		t.Fatalf("show broadcast: %v", got)
	}
}

func TestShowShardingRules(t *testing.T) {
	_, s, _ := fixture(t)
	exec(t, s, createUserRule)
	res := exec(t, s, "SHOW SHARDING TABLE RULES")
	got := rows(t, res)
	if len(got) != 1 || got[0][0].S != "t_user" || got[0][3].I != 4 {
		t.Fatalf("show rules: %v", got)
	}
	res = exec(t, s, "SHOW SHARDING TABLE RULE t_user")
	if got := rows(t, res); len(got) != 1 {
		t.Fatalf("show one rule: %v", got)
	}
}

func TestShowResources(t *testing.T) {
	_, s, _ := fixture(t)
	res := exec(t, s, "SHOW RESOURCES")
	got := rows(t, res)
	if len(got) != 2 || got[0][0].S != "ds0" {
		t.Fatalf("resources: %v", got)
	}
}

func TestSetAndShowVariable(t *testing.T) {
	_, s, _ := fixture(t)
	exec(t, s, "SET VARIABLE transaction_type = 'XA'")
	if s.TransactionType() != transaction.XA {
		t.Fatalf("type: %v", s.TransactionType())
	}
	res := exec(t, s, "SHOW VARIABLE transaction_type")
	if got := rows(t, res); got[0][0].S != "XA" {
		t.Fatalf("show variable: %v", got)
	}
	if _, err := s.Execute("SET VARIABLE transaction_type = 'BOGUS'"); err == nil {
		t.Fatal("bad type accepted")
	}
}

func TestCircuitBreakRAL(t *testing.T) {
	_, s, gov := fixture(t)
	exec(t, s, createUserRule)
	exec(t, s, "CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(32))")
	exec(t, s, "SET VARIABLE circuit_break = 'ds1:on'")
	// hash of some uid lands on ds1; find one that fails.
	failed := false
	for i := 0; i < 16; i++ {
		if _, err := s.Execute(fmt.Sprintf("INSERT INTO t_user (uid, name) VALUES (%d, 'x')", i)); err != nil {
			if !errors.Is(err, core.ErrSourceDown) {
				t.Fatalf("a statement on the broken source: %v", err)
			}
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("circuit break had no effect")
	}
	exec(t, s, "SET VARIABLE circuit_break = 'ds1:off'")
	exec(t, s, "INSERT INTO t_user (uid, name) VALUES (100, 'y')")

	// The value is checked: a name that is not a source is refused with
	// the ones that are and gets no breaker, and on/off reads as every
	// boolean variable does.
	_, err := s.Execute("SET VARIABLE circuit_break = 'dsX:on'")
	if err == nil || !strings.Contains(err.Error(), "ds0, ds1") {
		t.Fatalf("an unknown source: %v", err)
	}
	if _, ok := gov.BreakerStates()["dsX"]; ok {
		t.Fatal("an unknown source got a breaker")
	}
	for name := range metrics(t, s) {
		if strings.HasPrefix(name, "governor.breaker.dsX.") {
			t.Fatalf("SHOW METRICS has %s", name)
		}
	}
	for _, bad := range []string{"'ds0:of'", "'ds0'", "'ds0:'"} {
		if _, err := s.Execute("SET VARIABLE circuit_break = " + bad); err == nil {
			t.Errorf("circuit_break = %s accepted", bad)
		}
	}
	exec(t, s, "SET VARIABLE circuit_break = 'ds0:true'")
	if st := gov.BreakerStates()["ds0"]; st != governor.BreakerOpen {
		t.Fatalf("'ds0:true' left ds0's breaker %s", st)
	}
	exec(t, s, "SET VARIABLE circuit_break = 'ds0:0'")
	if st := gov.BreakerStates()["ds0"]; st != governor.BreakerClosed {
		t.Fatalf("'ds0:0' left ds0's breaker %s", st)
	}
}

func TestPreview(t *testing.T) {
	_, s, _ := fixture(t)
	exec(t, s, createUserRule)
	res := exec(t, s, "PREVIEW SELECT * FROM t_user WHERE uid = 5")
	got := rows(t, res)
	if len(got) != 1 {
		t.Fatalf("preview units: %v", got)
	}
	if !strings.Contains(got[0][1].S, "t_user_") {
		t.Fatalf("preview sql: %v", got[0])
	}
	res = exec(t, s, "PREVIEW SELECT * FROM t_user")
	if got := rows(t, res); len(got) != 4 {
		t.Fatalf("broadcast preview: %v", got)
	}
	// PREVIEW binds the statement as executing it would: its normalized
	// shape, each unit with the arguments its text reads — a split INSERT
	// its own rows', an offset page offset+count for its one LIMIT operand,
	// a derived key the argument it repeats.
	for sql, want := range map[string]string{
		"PREVIEW INSERT INTO t_user (uid, name) VALUES (6, 'x'), (-7, 'y'), (10, 'z')":     "[(ds1, INSERT INTO t_user_1 (uid, name) VALUES (?, ?), (-(?), ?), [6 x 7 y]) (ds0, INSERT INTO t_user_0 (uid, name) VALUES (?, ?), [10 z])]",
		"PREVIEW SELECT name FROM t_user WHERE uid IN (1, 2) ORDER BY uid LIMIT 20, 10":    "[(ds0, SELECT name, uid AS ORDER_BY_DERIVED_0 FROM t_user_0 WHERE uid IN (?, ?) ORDER BY uid LIMIT ?, [1 2 30]) (ds1, SELECT name, uid AS ORDER_BY_DERIVED_0 FROM t_user_1 WHERE uid IN (?, ?) ORDER BY uid LIMIT ?, [1 2 30])]",
		"PREVIEW SELECT uid % 3, uid % 5 FROM t_user WHERE uid IN (1, 2) ORDER BY uid % 5": "[(ds0, SELECT uid % ?, uid % ?, uid % ? AS ORDER_BY_DERIVED_0 FROM t_user_0 WHERE uid IN (?, ?) ORDER BY uid % ?, [3 5 5 1 2 5]) (ds1, SELECT uid % ?, uid % ?, uid % ? AS ORDER_BY_DERIVED_0 FROM t_user_1 WHERE uid IN (?, ?) ORDER BY uid % ?, [3 5 5 1 2 5])]",
	} {
		if got := fmt.Sprint(rows(t, exec(t, s, sql))); got != want {
			t.Errorf("%s:\n got %s\nwant %s", sql, got, want)
		}
	}
}

func TestRulePersistenceRoundTrip(t *testing.T) {
	k, s, gov := fixture(t)
	exec(t, s, createUserRule)
	loaded, err := gov.LoadRules()
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.IsSharded("t_user") {
		t.Fatal("rule not persisted")
	}
	_ = k
}

func TestShowStatus(t *testing.T) {
	_, s, gov := fixture(t)
	gov.CheckOnce()
	res := exec(t, s, "SHOW STATUS")
	got := rows(t, res)
	if len(got) != 4 {
		t.Fatalf("status rows: %v", got)
	}
	pools, breakers := 0, 0
	for _, r := range got {
		switch r[0].S {
		case "breaker":
			breakers++
			if r[2].S != "closed" {
				t.Fatalf("breaker row: %v", r)
			}
		case "pool":
			pools++
			if !strings.Contains(r[2].S, "in_use=") || !strings.Contains(r[2].S, "idle=") {
				t.Fatalf("pool row: %v", r)
			}
		default:
			t.Fatalf("unexpected kind: %v", r)
		}
	}
	if pools != 2 || breakers != 2 {
		t.Fatalf("want 2 pool and 2 breaker rows, got %d/%d", pools, breakers)
	}
}

func TestTraceReportsSpans(t *testing.T) {
	_, s, _ := fixture(t)
	exec(t, s, createUserRule)
	exec(t, s, "CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(32))")
	for i := 0; i < 8; i++ {
		exec(t, s, fmt.Sprintf("INSERT INTO t_user (uid, name) VALUES (%d, 'u%d')", i, i))
	}

	// Full-table SELECT routes to all 4 shards, two per source, which one
	// connection per source runs as one window (θ = 2): one execute span
	// per source window (data_source set), as a pipelined write has, plus
	// the pipeline's own execute mark.
	got := rows(t, exec(t, s, "TRACE SELECT * FROM t_user"))
	stageCount := map[string]int{}
	perSource := 0
	for _, r := range got {
		stage, ds := r[0].S, r[1].S
		stageCount[stage]++
		if stage == "execute" && ds != "" {
			perSource++
		}
	}
	for _, st := range []string{"parse", "route", "rewrite", "merge", "total"} {
		if stageCount[st] != 1 {
			t.Fatalf("stage %s: want 1 span, got %d (%v)", st, stageCount[st], got)
		}
	}
	if perSource != 2 {
		t.Fatalf("want 2 per-source execute spans, got %d (%v)", perSource, got)
	}

	// A point select routes to exactly one shard.
	got = rows(t, exec(t, s, "TRACE SELECT name FROM t_user WHERE uid = 3"))
	perSource = 0
	for _, r := range got {
		if r[0].S == "execute" && r[1].S != "" {
			perSource++
		}
	}
	if perSource != 1 {
		t.Fatalf("point select: want 1 per-source execute span, got %d (%v)", perSource, got)
	}
}

func TestShowSQLMetrics(t *testing.T) {
	_, s, _ := fixture(t)
	exec(t, s, createUserRule)
	exec(t, s, "CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(32))")
	for i := 0; i < 10; i++ {
		exec(t, s, fmt.Sprintf("INSERT INTO t_user (uid, name) VALUES (%d, 'u%d')", i, i))
	}
	rows(t, exec(t, s, "SELECT * FROM t_user"))

	got := rows(t, exec(t, s, "SHOW METRICS"))
	hists := map[string]bool{}
	for _, r := range got {
		if r[1].S != "histogram" {
			continue
		}
		hists[r[2].S] = true
		if strings.HasPrefix(r[2].S, "stage.") && (r[3].I <= 0 || r[4].I <= 0 || r[5].I < r[4].I) {
			t.Fatalf("bad stage row (count/p50/p99): %v", r)
		}
	}
	for _, st := range []string{"parse", "route", "rewrite", "execute", "total"} {
		if !hists["stage."+st] {
			t.Fatalf("missing stage %s in %v", st, got)
		}
	}
	if !hists["source.ds0.execute"] || !hists["source.ds1.execute"] {
		t.Fatalf("missing source rows: %v", got)
	}
}

func TestShowSlowQueries(t *testing.T) {
	_, s, _ := fixture(t)
	exec(t, s, createUserRule)
	exec(t, s, "CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(32))")
	// Threshold 0: every statement is a "slow" statement. Sampling 1 so
	// the captured entry carries its span breakdown.
	exec(t, s, "SET VARIABLE slow_query_threshold_ms = 0")
	exec(t, s, "SET VARIABLE stage_sampling = 1")
	exec(t, s, "INSERT INTO t_user (uid, name) VALUES (1, 'u1')")
	got := rows(t, exec(t, s, "SHOW SLOW QUERIES"))
	if len(got) == 0 {
		t.Fatal("no slow queries captured at threshold 0")
	}
	found := false
	for _, r := range got {
		if strings.Contains(r[0].S, "INSERT INTO t_user") {
			found = true
			if r[1].I <= 0 || !strings.Contains(r[3].S, "total=") && !strings.Contains(r[3].S, "execute") {
				t.Fatalf("bad slow row: %v", r)
			}
		}
	}
	if !found {
		t.Fatalf("insert not captured: %v", got)
	}
}

func TestShowPlanCacheExtraColumns(t *testing.T) {
	_, s, _ := fixture(t)
	exec(t, s, createUserRule)
	exec(t, s, "CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(32))")
	for i := 0; i < 5; i++ {
		exec(t, s, "SELECT name FROM t_user WHERE uid = 3")
	}
	m := metrics(t, s)
	if m["plan_cache.hit_ratio_milli"] <= 0 {
		t.Fatalf("hit_ratio not reported: %v", m)
	}
	for i := 0; i < 16; i++ {
		if _, ok := m[fmt.Sprintf("plan_cache.shard_evictions.%d", i)]; !ok {
			t.Fatalf("shard_evictions should list 16 shards: %v", m)
		}
	}
}

func TestParseErrors(t *testing.T) {
	_, s, _ := fixture(t)
	for _, sql := range []string{
		"CREATE SHARDING TABLE RULE t ()",
		"CREATE SHARDING TABLE RULE t (RESOURCES(ds0))",
		"SHOW SHARDING",
		"SET VARIABLE",
		"PREVIEW",
		"CREATE NONSENSE",
	} {
		if _, err := s.Execute(sql); err == nil {
			t.Errorf("%s: accepted", sql)
		}
	}
}

func TestParseToleratesCase(t *testing.T) {
	_, s, _ := fixture(t)
	exec(t, s, "create sharding table rule T (resources(ds0), sharding_column=ID, type=mod, properties('sharding-count'=2))")
	got := rows(t, exec(t, s, "SHOW SHARDING TABLE RULE T"))
	if len(got) != 1 || got[0][0].S != "T" || got[0][1].S != "ID" || got[0][2].S != "mod" || got[0][3].I != 2 {
		t.Fatalf("rule: %v", got)
	}
}

func TestAlterRuleInvalidatesCachedPlans(t *testing.T) {
	// Regression: a point query cached under MOD(2) must not keep routing
	// by the old layout after ALTER SHARDING TABLE RULE moves to MOD(4).
	k, s, _ := fixture(t)
	exec(t, s, `CREATE SHARDING TABLE RULE t_user (
		RESOURCES(ds0, ds1),
		SHARDING_COLUMN = uid,
		TYPE = mod,
		PROPERTIES("sharding-count" = 2)
	)`)
	exec(t, s, "CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(32))")
	for i := 0; i < 4; i++ {
		exec(t, s, fmt.Sprintf("INSERT INTO t_user (uid, name) VALUES (%d, 'u%d')", i, i))
	}
	// Warm the plan cache with the point-select shape: its third sight
	// keeps the plan.
	var got []sqltypes.Row
	for i := 0; i < sights.Keep; i++ {
		got = rows(t, exec(t, s, "SELECT name FROM t_user WHERE uid = 2"))
		if len(got) != 1 || got[0][0].S != "u2" {
			t.Fatalf("warm query: %v", got)
		}
	}

	exec(t, s, `ALTER SHARDING TABLE RULE t_user (
		RESOURCES(ds0, ds1),
		SHARDING_COLUMN = uid,
		TYPE = mod,
		PROPERTIES("sharding-count" = 4)
	)`)
	// uid 1 is on t_user_1 under both layouts.
	if got := replans(t, k, s, "SELECT name FROM t_user WHERE uid = 1"); got != [2]uint64{1, 0} {
		t.Fatalf("after ALTER SHARDING TABLE RULE the warm shape missed %v times, want once, then a hit", got)
	}
	// Materialize the two new shards and land a row on one of them:
	// uid 6 routes to t_user_2 under MOD(4) but to t_user_0 under the old
	// MOD(2) layout, which never held it.
	exec(t, s, "CREATE TABLE IF NOT EXISTS t_user (uid INT PRIMARY KEY, name VARCHAR(32))")
	exec(t, s, "INSERT INTO t_user (uid, name) VALUES (6, 'u6')")
	got = rows(t, exec(t, s, "SELECT name FROM t_user WHERE uid = 6"))
	if len(got) != 1 || got[0][0].S != "u6" {
		t.Fatalf("stale plan routed by the old layout: %v", got)
	}
}

func TestShowPlanCacheStatus(t *testing.T) {
	_, s, _ := fixture(t)
	exec(t, s, createUserRule)
	exec(t, s, "CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(32))")
	exec(t, s, "INSERT INTO t_user (uid, name) VALUES (1, 'u1')")
	// The shape's first three executions miss (the third keeps the plan
	// it compiles), the next hits.
	for i := 0; i <= sights.Keep; i++ {
		exec(t, s, "SELECT name FROM t_user WHERE uid = 1")
	}

	m := metrics(t, s)
	if m["plan_cache.hits"] < 1 {
		t.Fatalf("expected at least one hit: %v", m)
	}
	if m["plan_cache.misses"] < 1 {
		t.Fatalf("expected at least one miss: %v", m)
	}
	if m["plan_cache.size"] < 1 || m["plan_cache.capacity"] < m["plan_cache.size"] {
		t.Fatalf("size/capacity: %v", m)
	}
}

func TestConfigWatchInvalidatesPeerInstance(t *testing.T) {
	// Two instances share one coordination registry. A rule change executed
	// on instance A reaches instance B through the governor's config watch
	// — B never sees the DistSQL statement itself: B adopts A's version,
	// one document write, and that makes B's kept plans stale.
	reg := registry.New()
	mk := func(tag string) (*core.Kernel, *core.Session) {
		sources := map[string]*resource.DataSource{}
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("ds%d", i)
			sources[name] = resource.NewEmbedded(storage.NewEngine(tag+name), nil)
		}
		k, err := core.New(core.Config{Sources: sources, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(Install(k).Close)
		return k, k.NewSession()
	}
	kA, sA := mk("a_")
	kB, sB := mk("b_")
	for i := 0; i < sights.Keep; i++ {
		exec(t, sB, "SELECT 1")
	}

	v := kA.Rules().Version
	exec(t, sA, createUserRule)
	if kA.Rules().Version != v+1 {
		t.Fatalf("the rule change wrote version %d on %d", kA.Rules().Version, v)
	}
	adopted(t, kB, v+1)
	if kB.Rules().Version != v+1 {
		t.Fatalf("the peer is at version %d, want %d", kB.Rules().Version, v+1)
	}
	if got := replans(t, kB, sB, "SELECT 1"); got != [2]uint64{1, 0} {
		t.Fatalf("after the config push the peer's warm shape missed %v times, want once, then a hit", got)
	}
	if _, ok := kB.Rules().Rule("t_user"); !ok {
		t.Fatal("peer instance did not adopt the rule")
	}
}

func TestReshardRAL(t *testing.T) {
	k, s, gov := fixture(t)
	exec(t, s, createUserRule)
	exec(t, s, "CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(32))")
	for i := 0; i < 40; i++ {
		exec(t, s, fmt.Sprintf("INSERT INTO t_user (uid, name) VALUES (%d, 'u%d')", i, i))
	}
	res := exec(t, s, `RESHARD TABLE t_user (
		RESOURCES(ds0, ds1),
		SHARDING_COLUMN = uid,
		TYPE = mod,
		PROPERTIES("sharding-count" = 8)
	)`)
	got := rows(t, res)
	if len(got) != 1 || got[0][1].S != "completed" || got[0][2].I != 40 {
		t.Fatalf("reshard result: %v", got)
	}
	rule, _ := k.Rules().Rule("t_user")
	if len(rule.DataNodes) != 8 {
		t.Fatalf("rule after reshard: %v", rule.DataNodes)
	}
	out := rows(t, exec(t, s, "SELECT COUNT(*) FROM t_user"))
	if out[0][0].I != 40 {
		t.Fatalf("data after reshard: %v", out)
	}
	// Point queries route by the new MOD(8) layout.
	out = rows(t, exec(t, s, "SELECT name FROM t_user WHERE uid = 13"))
	if len(out) != 1 || out[0][0].S != "u13" {
		t.Fatalf("point query after reshard: %v", out)
	}
	// The persisted rule reloads onto the tables RESHARD created, not onto
	// the ones it dropped.
	loaded, err := gov.LoadRules()
	if err != nil {
		t.Fatal(err)
	}
	reloaded, _ := loaded.Rule("t_user")
	if !slices.Equal(reloaded.DataNodes, rule.DataNodes) {
		t.Fatalf("reloaded nodes %v, live nodes %v", reloaded.DataNodes, rule.DataNodes)
	}
}

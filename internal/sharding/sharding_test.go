package sharding

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"testing"

	"shardingsphere/internal/sqltypes"
)

func vi(n int64) sqltypes.Value  { return sqltypes.NewInt(n) }
func vs(s string) sqltypes.Value { return sqltypes.NewString(s) }

func targets(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s_%d", prefix, i)
	}
	return out
}

func TestModAlgorithm(t *testing.T) {
	a, err := New("mod", map[string]string{"sharding-count": "4"})
	if err != nil {
		t.Fatal(err)
	}
	tg := targets("t", 4)
	for v := int64(0); v < 16; v++ {
		got, err := a.Precise(tg, "uid", vi(v))
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("t_%d", v%4)
		if got != want {
			t.Fatalf("mod(%d): %s want %s", v, got, want)
		}
	}
	// Negative values stay in range.
	got, err := a.Precise(tg, "uid", vi(-3))
	if err != nil {
		t.Fatal(err)
	}
	if got != "t_1" {
		t.Fatalf("mod(-3): %s", got)
	}
	// A narrow range enumerates just the needed targets.
	lo, hi := vi(4), vi(5)
	r, err := a.DoRange(tg, "uid", &lo, &hi)
	if err != nil || len(r) != 2 {
		t.Fatalf("mod range: %v %v", r, err)
	}
	// A wide range hits everything.
	lo2, hi2 := vi(0), vi(100)
	r, _ = a.DoRange(tg, "uid", &lo2, &hi2)
	if len(r) != 4 {
		t.Fatalf("mod wide range: %v", r)
	}
}

// A range that reaches an end of int64 neither panics (its span+1 wraps)
// nor loops (its last value+1 wraps), and still covers its targets.
func TestModRangeAtInt64Bounds(t *testing.T) {
	a, err := New("mod", map[string]string{"sharding-count": "4"})
	if err != nil {
		t.Fatal(err)
	}
	tg := targets("t", 4)
	for _, c := range []struct {
		lo, hi int64
		want   int
	}{
		{math.MinInt64, math.MaxInt64, 4},
		{0, math.MaxInt64, 4},
		{-1, math.MaxInt64, 4},
		{math.MaxInt64 - 1, math.MaxInt64, 2},
		{math.MinInt64, math.MinInt64 + 1, 2},
	} {
		lo, hi := vi(c.lo), vi(c.hi)
		r, err := a.DoRange(tg, "uid", &lo, &hi)
		if err != nil || len(r) != c.want {
			t.Fatalf("mod range [%d, %d]: %v %v, want %d targets", c.lo, c.hi, r, err, c.want)
		}
	}
}

func TestModAlgorithmBadProps(t *testing.T) {
	if _, err := New("MOD", map[string]string{}); !errors.Is(err, ErrBadProperty) {
		t.Fatalf("missing count: %v", err)
	}
	if _, err := New("MOD", map[string]string{"sharding-count": "0"}); !errors.Is(err, ErrBadProperty) {
		t.Fatalf("zero count: %v", err)
	}
	if _, err := New("MOD", map[string]string{"sharding-count": "x"}); !errors.Is(err, ErrBadProperty) {
		t.Fatalf("bad count: %v", err)
	}
}

func TestHashModDeterministicAndBalanced(t *testing.T) {
	a, err := New("HASH_MOD", map[string]string{"sharding-count": "4"})
	if err != nil {
		t.Fatal(err)
	}
	tg := targets("t", 4)
	counts := map[string]int{}
	for i := 0; i < 4000; i++ {
		got1, err := a.Precise(tg, "uid", vs(fmt.Sprintf("user-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		got2, _ := a.Precise(tg, "uid", vs(fmt.Sprintf("user-%d", i)))
		if got1 != got2 {
			t.Fatal("hash_mod not deterministic")
		}
		counts[got1]++
	}
	for tgt, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("hash_mod unbalanced: %s=%d", tgt, c)
		}
	}
	// Int and equal string co-locate.
	g1, _ := a.Precise(tg, "uid", vi(7))
	g2, _ := a.Precise(tg, "uid", vs("7"))
	if g1 != g2 {
		t.Fatal("7 and '7' hash apart")
	}
	// Ranges broadcast.
	lo := vi(1)
	r, _ := a.DoRange(tg, "uid", &lo, nil)
	if len(r) != 4 {
		t.Fatalf("hash range: %v", r)
	}
}

func TestVolumeRange(t *testing.T) {
	a, err := New("VOLUME_RANGE", map[string]string{
		"range-lower": "0", "range-upper": "30", "sharding-volume": "10",
	})
	if err != nil {
		t.Fatal(err)
	}
	// 5 targets: underflow, [0,10), [10,20), [20,30), overflow.
	tg := targets("t", 5)
	cases := map[int64]string{-5: "t_0", 0: "t_1", 9: "t_1", 10: "t_2", 29: "t_3", 30: "t_4", 99: "t_4"}
	for v, want := range cases {
		got, err := a.Precise(tg, "k", vi(v))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("volume(%d): %s want %s", v, got, want)
		}
	}
	lo, hi := vi(5), vi(15)
	r, err := a.DoRange(tg, "k", &lo, &hi)
	if err != nil || len(r) != 2 || r[0] != "t_1" || r[1] != "t_2" {
		t.Fatalf("volume range: %v %v", r, err)
	}
}

func TestBoundaryRange(t *testing.T) {
	a, err := New("BOUNDARY_RANGE", map[string]string{"sharding-ranges": "10, 20, 30"})
	if err != nil {
		t.Fatal(err)
	}
	tg := targets("t", 4)
	cases := map[int64]string{5: "t_0", 10: "t_1", 19: "t_1", 20: "t_2", 30: "t_3", 99: "t_3"}
	for v, want := range cases {
		got, _ := a.Precise(tg, "k", vi(v))
		if got != want {
			t.Fatalf("boundary(%d): %s want %s", v, got, want)
		}
	}
	if _, err := New("BOUNDARY_RANGE", map[string]string{"sharding-ranges": "30,10"}); !errors.Is(err, ErrBadProperty) {
		t.Fatalf("descending bounds: %v", err)
	}
	lo := vi(15)
	r, _ := a.DoRange(tg, "k", &lo, nil)
	if len(r) != 3 || r[0] != "t_1" {
		t.Fatalf("boundary open range: %v", r)
	}
}

func TestAutoInterval(t *testing.T) {
	a, err := New("AUTO_INTERVAL", map[string]string{
		"datetime-lower":   "2021-01-01 00:00:00",
		"datetime-upper":   "2021-01-04 00:00:00",
		"sharding-seconds": "86400",
	})
	if err != nil {
		t.Fatal(err)
	}
	// underflow + 3 day buckets
	tg := targets("t", 4)
	got, err := a.Precise(tg, "ts", vs("2021-01-02 13:00:00"))
	if err != nil || got != "t_2" {
		t.Fatalf("auto interval: %v %v", got, err)
	}
	got, _ = a.Precise(tg, "ts", vs("2020-12-25 00:00:00"))
	if got != "t_0" {
		t.Fatalf("underflow: %v", got)
	}
	lo, hi := vs("2021-01-01 05:00:00"), vs("2021-01-02 05:00:00")
	r, err := a.DoRange(tg, "ts", &lo, &hi)
	if err != nil || len(r) != 2 {
		t.Fatalf("auto interval range: %v %v", r, err)
	}
}

func TestInline(t *testing.T) {
	a, err := New("INLINE", map[string]string{"algorithm-expression": "t_user_${uid % 2}"})
	if err != nil {
		t.Fatal(err)
	}
	tg := []string{"t_user_0", "t_user_1"}
	got, err := a.Precise(tg, "uid", vi(7))
	if err != nil || got != "t_user_1" {
		t.Fatalf("inline: %v %v", got, err)
	}
	// Range forbidden by default.
	lo := vi(1)
	if _, err := a.DoRange(tg, "uid", &lo, nil); err == nil {
		t.Fatal("inline range should fail without the allow property")
	}
	a2, _ := New("INLINE", map[string]string{
		"algorithm-expression":                   "t_user_${uid % 2}",
		"allow-range-query-with-inline-sharding": "true",
	})
	if r, err := a2.DoRange(tg, "uid", &lo, nil); err != nil || len(r) != 2 {
		t.Fatalf("inline allowed range: %v %v", r, err)
	}
	// Arithmetic in the template.
	a3, _ := New("INLINE", map[string]string{"algorithm-expression": "ds_${uid / 100 % 2}"})
	got, _ = a3.Precise([]string{"ds_0", "ds_1"}, "uid", vi(150))
	if got != "ds_1" {
		t.Fatalf("inline arith: %v", got)
	}
}

func TestInterval(t *testing.T) {
	a, err := New("INTERVAL", map[string]string{
		"datetime-lower":          "2021-01-01 00:00:00",
		"sharding-suffix-pattern": "yyyyMM",
	})
	if err != nil {
		t.Fatal(err)
	}
	tg := []string{"t_pay_202101", "t_pay_202102", "t_pay_202103"}
	got, err := a.Precise(tg, "ts", vs("2021-02-14 09:00:00"))
	if err != nil || got != "t_pay_202102" {
		t.Fatalf("interval: %v %v", got, err)
	}
	lo, hi := vs("2021-01-15 00:00:00"), vs("2021-03-15 00:00:00")
	r, err := a.DoRange(tg, "ts", &lo, &hi)
	if err != nil || len(r) != 3 {
		t.Fatalf("interval range: %v %v", r, err)
	}
}

func TestClassBased(t *testing.T) {
	RegisterClassBased("evens-first", func() Algorithm {
		a, _ := New("MOD", map[string]string{"sharding-count": "2"})
		return a
	})
	a, err := New("CLASS_BASED", map[string]string{"strategy": "evens-first", "sharding-count": "2"})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := a.Precise([]string{"a", "b"}, "k", vi(3))
	if got != "b" {
		t.Fatalf("class based: %v", got)
	}
	if _, err := New("CLASS_BASED", map[string]string{"strategy": "nope"}); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("unknown class: %v", err)
	}
}

func TestComplexInline(t *testing.T) {
	a, err := NewComplexInline(map[string]string{"algorithm-expression": "t_${(uid + oid) % 2}"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.DoSharding([]string{"t_0", "t_1"}, map[string]sqltypes.Value{"uid": vi(1), "oid": vi(2)})
	if err != nil || len(got) != 1 || got[0] != "t_1" {
		t.Fatalf("complex: %v %v", got, err)
	}
	// Missing column → all targets.
	got, _ = a.DoSharding([]string{"t_0", "t_1"}, map[string]sqltypes.Value{"uid": vi(1)})
	if len(got) != 2 {
		t.Fatalf("complex incomplete: %v", got)
	}
}

func TestHintInline(t *testing.T) {
	a, err := NewHintInline(map[string]string{"algorithm-expression": "ds_${value % 2}"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.DoHint([]string{"ds_0", "ds_1"}, vi(5))
	if err != nil || len(got) != 1 || got[0] != "ds_1" {
		t.Fatalf("hint: %v %v", got, err)
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	if _, err := New("NOPE", nil); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("unknown: %v", err)
	}
	names := Names()
	if len(names) < 8 {
		t.Fatalf("expected ≥8 presets, got %v", names)
	}
}

// --- rules ---

func autoRule(t *testing.T, table string, resources []string, count int) *TableRule {
	t.Helper()
	r, err := BuildAutoRule(AutoTableSpec{
		LogicTable:     table,
		Resources:      resources,
		ShardingColumn: "uid",
		AlgorithmType:  "MOD",
		ShardingCount:  count,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBuildAutoRuleLayout(t *testing.T) {
	r := autoRule(t, "t_user", []string{"ds0", "ds1"}, 4)
	if len(r.DataNodes) != 4 {
		t.Fatalf("nodes: %v", r.DataNodes)
	}
	// Round-robin layout over resources.
	want := []DataNode{
		{"ds0", "t_user_0"}, {"ds1", "t_user_1"}, {"ds0", "t_user_2"}, {"ds1", "t_user_3"},
	}
	for i, n := range r.DataNodes {
		if n != want[i] {
			t.Fatalf("node %d: %v want %v", i, n, want[i])
		}
	}
	if got := r.NodeIndex().sources; len(got) != 2 {
		t.Fatalf("data sources: %v", got)
	}
	if got := r.NodeIndex().tablesIn["ds0"]; len(got) != 2 || got[1] != "t_user_2" {
		t.Fatalf("tables in ds0: %v", got)
	}
}

func TestAutoRuleRoute(t *testing.T) {
	r := autoRule(t, "t_user", []string{"ds0", "ds1"}, 4)
	// Point condition → single node.
	nodes, err := r.NodeIndex().Route([]Condition{{Values: []sqltypes.Value{vi(6)}}}, nil, nil)
	if err != nil || len(nodes) != 1 || nodes[0].Table != "t_user_2" || nodes[0].DataSource != "ds0" {
		t.Fatalf("point route: %v %v", nodes, err)
	}
	// IN condition → the matching set.
	nodes, _ = r.NodeIndex().Route([]Condition{{Values: []sqltypes.Value{vi(1), vi(5)}}}, nil, nil)
	if len(nodes) != 1 || nodes[0].Table != "t_user_1" {
		t.Fatalf("in route dedupe: %v", nodes)
	}
	// An absent condition → all nodes (broadcast within the rule).
	nodes, _ = r.NodeIndex().Route([]Condition{{}}, nil, nil)
	if len(nodes) != 4 {
		t.Fatalf("full route: %v", nodes)
	}
	// Range → all nodes under MOD with wide range.
	lo, hi := vi(0), vi(1000)
	nodes, _ = r.NodeIndex().Route([]Condition{{Ranged: true, Lo: &lo, Hi: &hi}}, nil, nil)
	if len(nodes) != 4 {
		t.Fatalf("range route: %v", nodes)
	}
	if cols := r.NodeIndex().Columns(); len(cols) != 1 || cols[0] != "uid" {
		t.Fatalf("sharding columns: %v", cols)
	}
}

// A range that no target holds — the bounds reversed — routes to the
// strategy's first target, whose scan finds no row, on every algorithm
// whose DoRange reports such a range with ErrNoTarget.
func TestEmptyRangeRoutesToFirstTarget(t *testing.T) {
	for _, c := range []struct {
		algorithm string
		props     map[string]string
		lo, hi    sqltypes.Value
	}{
		{"BOUNDARY_RANGE", map[string]string{"sharding-ranges": "4, 8, 12"}, vi(5), vi(3)},
		{"VOLUME_RANGE", map[string]string{"range-lower": "1", "range-upper": "9", "sharding-volume": "4"}, vi(5), vi(3)},
		{"AUTO_INTERVAL", map[string]string{"datetime-lower": "2021-01-01 00:00:00", "datetime-upper": "2021-01-04 00:00:00", "sharding-seconds": "86400"},
			vs("2021-01-03 00:00:00"), vs("2021-01-01 12:00:00")},
	} {
		props := map[string]string{"sharding-count": "4"}
		maps.Copy(props, c.props)
		r, err := BuildAutoRule(AutoTableSpec{LogicTable: "t", Resources: []string{"ds0", "ds1"}, ShardingColumn: "uid", AlgorithmType: c.algorithm, Properties: props})
		if err != nil {
			t.Fatal(err)
		}
		nodes, err := r.NodeIndex().Route([]Condition{{Ranged: true, Lo: &c.lo, Hi: &c.hi}}, nil, nil)
		if err != nil || len(nodes) != 1 || nodes[0] != r.DataNodes[0] {
			t.Errorf("%s: an empty range routes to %v, %v; want %v", c.algorithm, nodes, err, r.DataNodes[:1])
		}
	}
}

func TestStandardRuleRoute(t *testing.T) {
	dbAlgo, _ := New("MOD", map[string]string{"sharding-count": "2"})
	tblAlgo, _ := New("INLINE", map[string]string{"algorithm-expression": "t_order_${oid % 2}"})
	r := &TableRule{
		LogicTable: "t_order",
		DataNodes: []DataNode{
			{"ds0", "t_order_0"}, {"ds0", "t_order_1"},
			{"ds1", "t_order_0"}, {"ds1", "t_order_1"},
		},
		DBStrategy:    &Strategy{Column: "uid", Algorithm: dbAlgo},
		TableStrategy: &Strategy{Column: "oid", Algorithm: tblAlgo},
	}
	// Both keys → one node. Conditions follow the index columns: uid, oid.
	nodes, err := r.NodeIndex().Route([]Condition{
		{Values: []sqltypes.Value{vi(3)}},
		{Values: []sqltypes.Value{vi(4)}},
	}, nil, nil)
	if err != nil || len(nodes) != 1 || nodes[0].DataSource != "ds1" || nodes[0].Table != "t_order_0" {
		t.Fatalf("standard route: %v %v", nodes, err)
	}
	// Only db key → both tables of one source.
	nodes, _ = r.NodeIndex().Route([]Condition{{Values: []sqltypes.Value{vi(2)}}}, nil, nil)
	if len(nodes) != 2 || nodes[0].DataSource != "ds0" {
		t.Fatalf("db-only route: %v", nodes)
	}
	// No keys → everything.
	nodes, _ = r.NodeIndex().Route(nil, nil, nil)
	if len(nodes) != 4 {
		t.Fatalf("broadcast route: %v", nodes)
	}
}

func TestRuleSetBinding(t *testing.T) {
	rs := NewRuleSet()
	rs.AddRule(autoRule(t, "t_user", []string{"ds0", "ds1"}, 2))
	rs.AddRule(autoRule(t, "t_order", []string{"ds0", "ds1"}, 2))
	rs.AddRule(autoRule(t, "t_other", []string{"ds0", "ds1"}, 4))

	if err := rs.AddBindingGroup("t_user", "t_order"); err != nil {
		t.Fatal(err)
	}
	if !rs.Bound("t_user", "t_order") || !rs.Bound("T_USER", "T_ORDER") {
		t.Fatal("binding lost")
	}
	if rs.Bound("t_user", "t_other") {
		t.Fatal("phantom binding")
	}
	// Different shard counts cannot bind.
	if err := rs.AddBindingGroup("t_user", "t_other"); err == nil {
		t.Fatal("mismatched binding accepted")
	}
	if err := rs.AddBindingGroup("t_user", "missing"); !errors.Is(err, ErrNoRule) {
		t.Fatalf("binding missing table: %v", err)
	}
	if err := rs.AddBindingGroup("t_user"); err == nil {
		t.Fatal("single-table binding accepted")
	}
	// Same shard count, but shard i on another source: a per-shard join
	// would meet a table its source does not hold.
	rs.AddRule(autoRule(t, "t_swapped", []string{"ds1", "ds0"}, 2))
	if err := rs.AddBindingGroup("t_user", "t_swapped"); err == nil || rs.Bound("t_user", "t_swapped") {
		t.Fatalf("binding across sources accepted: %v", err)
	}
	// Removing a rule clears it from groups.
	rs.RemoveRule("t_order")
	if rs.IsSharded("t_order") || rs.Bound("t_user", "t_order") {
		t.Fatal("remove incomplete")
	}
}

func TestRuleSetDefaults(t *testing.T) {
	rs := NewRuleSet()
	if rs.IsSharded("t") {
		t.Fatal("empty set shards nothing")
	}
	if _, ok := rs.Rule("t"); ok {
		t.Fatal("phantom rule")
	}
	rs.Broadcast["t_dict"] = true
	if !rs.Broadcast["t_dict"] {
		t.Fatal("broadcast flag")
	}
}

package route

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
)

// newRouter builds a router over rs, published once.
func newRouter(rs *sharding.RuleSet, sources []string) *Router {
	var p atomic.Pointer[sharding.RuleSet]
	p.Store(rs)
	return New(&p, sources)
}

// fixture builds the paper's running example: t_user and t_order sharded
// by uid%2 over ds0/ds1 (each source holding one actual table), bound
// together; t_other sharded independently; t_dict broadcast; t_plain
// unsharded on ds0.
func fixture(t *testing.T, bind bool) *Router {
	t.Helper()
	rs := sharding.NewRuleSet()
	rs.DefaultDataSource = "ds0"
	rs.Broadcast["t_dict"] = true
	for _, table := range []string{"t_user", "t_order", "t_other"} {
		rule, err := sharding.BuildAutoRule(sharding.AutoTableSpec{
			LogicTable:     table,
			Resources:      []string{"ds0", "ds1"},
			ShardingColumn: "uid",
			AlgorithmType:  "MOD",
			ShardingCount:  2,
		})
		if err != nil {
			t.Fatal(err)
		}
		rs.AddRule(rule)
	}
	if bind {
		if err := rs.AddBindingGroup("t_user", "t_order"); err != nil {
			t.Fatal(err)
		}
	}
	return newRouter(rs, []string{"ds0", "ds1"})
}

func parse(t *testing.T, sql string) sqlparser.Statement {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

// routeSQL routes through Router.Route and checks that the statement's
// skeleton, bound twice, gives the same route both times.
func routeSQL(t *testing.T, r *Router, sql string, args ...sqltypes.Value) *Result {
	t.Helper()
	stmt := parse(t, sql)
	res, err := r.Route(stmt, args, nil)
	if err != nil {
		t.Fatalf("route %q: %v", sql, err)
	}
	sk, ok := r.BuildSkeleton(stmt)
	if !ok {
		t.Fatalf("BuildSkeleton(%q) refused", sql)
	}
	for i := 0; i < 2; i++ {
		if again, err := sk.Route(args, nil); err != nil || !reflect.DeepEqual(again, res) {
			t.Fatalf("%q, binding %d of one skeleton: %+v %v, want %+v", sql, i, again, err, res)
		}
	}
	return res
}

func TestStandardRouteEquality(t *testing.T) {
	r := fixture(t, true)
	res := routeSQL(t, r, "SELECT * FROM t_user WHERE uid = 3")
	if res.Kind != KindStandard || len(res.Units) != 1 {
		t.Fatalf("route: %+v", res)
	}
	u := res.Units[0]
	if u.DataSource != "ds1" || u.TableMap["t_user"] != "t_user_1" {
		t.Fatalf("unit: %+v", u)
	}
	if !res.SingleNode() {
		t.Fatal("single node expected")
	}
}

func TestStandardRouteIn(t *testing.T) {
	r := fixture(t, true)
	// Paper example: uid IN (1, 2) hits both shards with the same SQL.
	res := routeSQL(t, r, "SELECT * FROM t_user WHERE uid IN (1, 2)")
	if len(res.Units) != 2 {
		t.Fatalf("IN route: %+v", res)
	}
	// Same-parity INs collapse to one shard.
	res = routeSQL(t, r, "SELECT * FROM t_user WHERE uid IN (2, 4, 6)")
	if len(res.Units) != 1 || res.Units[0].TableMap["t_user"] != "t_user_0" {
		t.Fatalf("IN collapse: %+v", res)
	}
}

func TestRouteWithPlaceholders(t *testing.T) {
	r := fixture(t, true)
	res := routeSQL(t, r, "SELECT * FROM t_user WHERE uid = ?", sqltypes.NewInt(4))
	if len(res.Units) != 1 || res.Units[0].TableMap["t_user"] != "t_user_0" {
		t.Fatalf("placeholder route: %+v", res)
	}
}

func TestBroadcastWithoutShardingKey(t *testing.T) {
	r := fixture(t, true)
	res := routeSQL(t, r, "SELECT * FROM t_user WHERE name = 'alice'")
	if res.Kind != KindBroadcast || len(res.Units) != 2 {
		t.Fatalf("broadcast: %+v", res)
	}
}

func TestOrDisablesNarrowing(t *testing.T) {
	r := fixture(t, true)
	res := routeSQL(t, r, "SELECT * FROM t_user WHERE uid = 1 OR name = 'x'")
	if len(res.Units) != 2 {
		t.Fatalf("OR must broadcast: %+v", res)
	}
}

func TestBindingJoinRoute(t *testing.T) {
	r := fixture(t, true)
	// The paper's example: binding join fans out pairwise, not cartesian.
	res := routeSQL(t, r, "SELECT * FROM t_user u JOIN t_order o ON u.uid = o.uid WHERE u.uid IN (1, 2)")
	if res.Kind != KindBinding || len(res.Units) != 2 {
		t.Fatalf("binding route: %+v", res)
	}
	for _, u := range res.Units {
		ut := u.TableMap["t_user"]
		ot := u.TableMap["t_order"]
		if ut[len(ut)-1] != ot[len(ot)-1] {
			t.Fatalf("binding misaligned: %+v", u)
		}
	}
}

// unbound builds a router over the given tables, each a MOD AutoTable on
// k with count shards over resources, and no binding group.
func unbound(t *testing.T, tables []string, resources []string, count int) *Router {
	t.Helper()
	rs := sharding.NewRuleSet()
	for _, table := range tables {
		rule, err := sharding.BuildAutoRule(sharding.AutoTableSpec{
			LogicTable: table, Resources: resources,
			ShardingColumn: "k", AlgorithmType: "MOD", ShardingCount: count,
		})
		if err != nil {
			t.Fatal(err)
		}
		rs.AddRule(rule)
	}
	return newRouter(rs, []string{"ds0", "ds1"})
}

func TestCartesianJoinRoute(t *testing.T) {
	// Unbound, each side's two shards on one source: every combination of
	// the routed nodes, 2 × 2 units.
	const sql = "SELECT * FROM a JOIN b ON a.k = b.k WHERE a.k IN (1, 2)"
	res := routeSQL(t, unbound(t, []string{"a", "b"}, []string{"ds0"}, 2), sql)
	if res.Kind != KindCartesian || len(res.Units) != 4 {
		t.Fatalf("cartesian route: %s", describe(res))
	}
	// Over two sources, half the combinations span them: refused, not
	// dropped.
	if _, err := fixture(t, false).Route(parse(t, "SELECT * FROM t_user u JOIN t_order o ON u.uid = o.uid WHERE u.uid IN (1, 2)"), nil, nil); !errors.Is(err, ErrNotColocated) {
		t.Fatalf("cartesian route over two sources: %v", err)
	}
}

func TestCartesianMultipleTablesPerSource(t *testing.T) {
	// 4 shards of each table on one source → 4 × 4 = 16 units.
	const sql = "SELECT * FROM a JOIN b ON a.k = b.k"
	res := routeSQL(t, unbound(t, []string{"a", "b"}, []string{"ds0"}, 4), sql)
	if res.Kind != KindCartesian || len(res.Units) != 16 {
		t.Fatalf("cartesian fanout: kind=%v units=%d", res.Kind, len(res.Units))
	}
	// The same shards over two sources are refused.
	if _, err := unbound(t, []string{"a", "b"}, []string{"ds0", "ds1"}, 4).Route(parse(t, sql), nil, nil); !errors.Is(err, ErrNotColocated) {
		t.Fatalf("cartesian fanout over two sources: %v", err)
	}
}

// TestJoinColocation: a join routes per shard only when its sharded tables
// are bound and equated on their sharding columns; any other join takes
// every combination of its tables' nodes, and a route no union of units
// can answer is refused.
func TestJoinColocation(t *testing.T) {
	r := fixture(t, true)
	const both = "ds0:t_user_0 ds1:t_user_1"
	for sql, want := range map[string]string{
		// A self-join is bound to itself.
		"SELECT * FROM t_user a JOIN t_user b ON a.uid = b.uid": "binding " + both,
		// A condition narrows the FROM entry it names, not every reference
		// to its table.
		"SELECT * FROM t_user a JOIN t_user b ON a.name = b.name WHERE a.uid = 1 AND b.uid = 3": "cartesian ds1:t_user_1",
		"SELECT * FROM t_user a JOIN t_user b ON a.name = b.name WHERE a.uid = 1":               "refused",
		// Linked through another table.
		"SELECT * FROM t_user u, t_order o, t_user v WHERE u.uid = o.uid AND o.uid = v.uid": "binding ds0:t_order_0+t_user_0 ds1:t_order_1+t_user_1",
		// Bound but not equated, or equated but not bound.
		"SELECT * FROM t_user u JOIN t_order o ON u.name = o.name WHERE u.uid = 1 AND o.uid = 3": "cartesian ds1:t_order_1+t_user_1",
		"SELECT * FROM t_user u JOIN t_order o ON u.uid = o.uid JOIN t_other x ON o.uid = x.uid": "refused",
		// An outer join's ON constant narrows neither side.
		"SELECT * FROM t_user u LEFT JOIN t_order o ON u.uid = o.uid AND u.uid = 1":                   "binding ds0:t_order_0+t_user_0 ds1:t_order_1+t_user_1",
		"SELECT * FROM t_user u LEFT JOIN t_order o ON u.name = o.name WHERE u.uid = 1 AND o.uid = 1": "cartesian ds1:t_order_1+t_user_1",
		// A sharded table on the NULL-extended side needs one unit.
		"SELECT * FROM t_dict d LEFT JOIN t_user u ON d.k = u.uid": "refused",
		"SELECT * FROM t_user u LEFT JOIN t_dict d ON d.k = u.uid": "broadcast " + both,
		// A qualifier that names no FROM entry narrows nothing.
		"SELECT * FROM t_user u WHERE x.uid = 1": "broadcast " + both,
	} {
		res, err := r.Route(parse(t, sql), nil, nil)
		got := "refused"
		if err == nil {
			got = describe(res)
		} else if !errors.Is(err, ErrNotColocated) {
			got = err.Error()
		}
		if got != want {
			t.Errorf("%s:\n got %s\nwant %s", sql, got, want)
		}
	}
	// A bound table whose rule was replaced by one with shard i on another
	// source is not joined per shard.
	rs := r.rules.Load().Clone()
	swapped, err := sharding.BuildAutoRule(sharding.AutoTableSpec{LogicTable: "t_order", Resources: []string{"ds1", "ds0"},
		ShardingColumn: "uid", AlgorithmType: "MOD", ShardingCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	rs.AddRule(swapped)
	r.rules.Store(rs)
	if _, err := r.Route(parse(t, "SELECT * FROM t_user u JOIN t_order o ON u.uid = o.uid"), nil, nil); !errors.Is(err, ErrNotColocated) {
		t.Fatalf("misaligned binding: %v", err)
	}
}

func TestJoinOnConditionRoutes(t *testing.T) {
	r := fixture(t, true)
	// Sharding value appears only in ON.
	res := routeSQL(t, r, "SELECT * FROM t_user u JOIN t_order o ON u.uid = o.uid AND u.uid = 3")
	if len(res.Units) != 1 || res.Units[0].DataSource != "ds1" {
		t.Fatalf("ON-condition route: %+v", res)
	}
}

func TestInsertRoute(t *testing.T) {
	r := fixture(t, true)
	res := routeSQL(t, r, "INSERT INTO t_user (uid, name) VALUES (1, 'a'), (2, 'b'), (3, 'c')")
	if len(res.Units) != 2 {
		t.Fatalf("insert route: %+v", res)
	}
	// Row indexes must partition by parity: rows 0,2 → shard 1; row 1 → shard 0.
	for _, u := range res.Units {
		switch u.TableMap["t_user"] {
		case "t_user_1":
			if len(u.RowIndexes) != 2 || u.RowIndexes[0] != 0 || u.RowIndexes[1] != 2 {
				t.Fatalf("odd rows: %+v", u)
			}
		case "t_user_0":
			if len(u.RowIndexes) != 1 || u.RowIndexes[0] != 1 {
				t.Fatalf("even rows: %+v", u)
			}
		default:
			t.Fatalf("unexpected table: %+v", u)
		}
	}
}

func TestInsertWithoutShardingKeyFails(t *testing.T) {
	r := fixture(t, true)
	_, err := r.Route(parse(t, "INSERT INTO t_user (name) VALUES ('a')"), nil, nil)
	if !errors.Is(err, ErrNoShardingValue) {
		t.Fatalf("want ErrNoShardingValue, got %v", err)
	}
}

func TestInsertPlaceholders(t *testing.T) {
	r := fixture(t, true)
	res, err := r.Route(parse(t, "INSERT INTO t_user (uid, name) VALUES (?, ?)"),
		[]sqltypes.Value{sqltypes.NewInt(5), sqltypes.NewString("x")}, nil)
	if err != nil || len(res.Units) != 1 || res.Units[0].TableMap["t_user"] != "t_user_1" {
		t.Fatalf("insert placeholder route: %+v %v", res, err)
	}
}

func TestUpdateDeleteRoute(t *testing.T) {
	r := fixture(t, true)
	res := routeSQL(t, r, "UPDATE t_user SET name = 'x' WHERE uid = 2")
	if len(res.Units) != 1 || res.Units[0].TableMap["t_user"] != "t_user_0" {
		t.Fatalf("update route: %+v", res)
	}
	res = routeSQL(t, r, "DELETE FROM t_user WHERE uid BETWEEN 1 AND 100")
	if len(res.Units) != 2 {
		t.Fatalf("delete range route: %+v", res)
	}
}

func TestUpdateShardingKeyRejected(t *testing.T) {
	r := fixture(t, true)
	_, err := r.Route(parse(t, "UPDATE t_user SET uid = 9 WHERE uid = 2"), nil, nil)
	if !errors.Is(err, ErrUpdateSharding) {
		t.Fatalf("want ErrUpdateSharding, got %v", err)
	}
}

func TestDDLBroadcast(t *testing.T) {
	r := fixture(t, true)
	res := routeSQL(t, r, "CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(10))")
	if res.Kind != KindBroadcast || len(res.Units) != 2 {
		t.Fatalf("ddl route: %+v", res)
	}
	if res.Units[0].TableMap["t_user"] == "" {
		t.Fatal("ddl must rename tables")
	}
	res = routeSQL(t, r, "DROP TABLE t_user")
	if len(res.Units) != 2 {
		t.Fatalf("drop route: %+v", res)
	}
}

func TestBroadcastTableDML(t *testing.T) {
	r := fixture(t, true)
	res := routeSQL(t, r, "INSERT INTO t_dict (k, v) VALUES (1, 'x')")
	if res.Kind != KindBroadcast || len(res.Units) != 2 {
		t.Fatalf("broadcast table insert: %+v", res)
	}
	res = routeSQL(t, r, "DELETE FROM t_dict WHERE k = 1")
	if len(res.Units) != 2 {
		t.Fatalf("broadcast table delete: %+v", res)
	}
}

func TestUnshardedDefaultRoute(t *testing.T) {
	r := fixture(t, true)
	res := routeSQL(t, r, "SELECT * FROM t_plain WHERE id = 5")
	if res.Kind != KindDefault || len(res.Units) != 1 || res.Units[0].DataSource != "ds0" {
		t.Fatalf("default route: %+v", res)
	}
	// Without a default source it fails.
	rs := r.rules.Load().Clone()
	rs.DefaultDataSource = ""
	r.rules.Store(rs)
	if _, err := r.Route(parse(t, "SELECT * FROM t_plain"), nil, nil); !errors.Is(err, ErrNoDataSource) {
		t.Fatalf("no default: %v", err)
	}
}

func TestRangeConditionTightening(t *testing.T) {
	rs := sharding.NewRuleSet()
	rule, _ := sharding.BuildAutoRule(sharding.AutoTableSpec{
		LogicTable: "t", Resources: []string{"ds0"},
		ShardingColumn: "k", AlgorithmType: "VOLUME_RANGE", ShardingCount: 5,
		Properties: map[string]string{"range-lower": "0", "range-upper": "30", "sharding-volume": "10"},
	})
	rs.AddRule(rule)
	r := newRouter(rs, []string{"ds0"})
	// k >= 5 AND k <= 15 → buckets [0,10) and [10,20) only.
	res := routeSQL(t, r, "SELECT * FROM t WHERE k >= 5 AND k <= 15")
	if len(res.Units) != 2 {
		t.Fatalf("tightened range: %+v", res.Units)
	}
	// BETWEEN does the same.
	res = routeSQL(t, r, "SELECT * FROM t WHERE k BETWEEN 5 AND 15")
	if len(res.Units) != 2 {
		t.Fatalf("between range: %+v", res.Units)
	}
}

func TestDataSourcesHelper(t *testing.T) {
	r := fixture(t, true)
	res := routeSQL(t, r, "SELECT * FROM t_user")
	sources := map[string]bool{}
	for _, u := range res.Units {
		sources[u.DataSource] = true
	}
	if len(sources) != 2 {
		t.Fatalf("data sources: %v", res.Units)
	}
}

// describe renders a route as literal text: its kind, then per unit the
// data source, the actual tables and, for an INSERT, the rows.
func describe(res *Result) string {
	parts := []string{res.Kind.String()}
	for _, u := range res.Units {
		var tables []string
		for _, actual := range u.TableMap {
			tables = append(tables, actual)
		}
		sort.Strings(tables)
		part := u.DataSource + ":" + strings.Join(tables, "+")
		if u.RowIndexes != nil {
			part += fmt.Sprint(u.RowIndexes)
		}
		parts = append(parts, part)
	}
	return strings.Join(parts, " ")
}

// TestCompileOnceBindTwice: every routable kind of statement is compiled
// once and bound twice with different arguments; each binding must give
// its literal route, and the same one as compiling afresh.
func TestCompileOnceBindTwice(t *testing.T) {
	rs := sharding.NewRuleSet()
	rs.DefaultDataSource = "ds0"
	rs.Broadcast["t_dict"] = true
	for _, table := range []string{"t_order", "t_item", "t_other"} {
		rule, err := sharding.BuildAutoRule(sharding.AutoTableSpec{
			LogicTable: table, Resources: []string{"ds0", "ds1"},
			ShardingColumn: "order_id", AlgorithmType: "MOD", ShardingCount: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		rs.AddRule(rule)
		rs.Define(table, &sharding.TableDef{Columns: sqltypes.Schema{{Name: "status"}, {Name: "order_id"}}})
	}
	if err := rs.AddBindingGroup("t_order", "t_item"); err != nil {
		t.Fatal(err)
	}
	r := newRouter(rs, []string{"ds0", "ds1"})
	ints := func(vs ...int64) []sqltypes.Value {
		out := make([]sqltypes.Value, len(vs))
		for i, v := range vs {
			out[i] = sqltypes.NewInt(v)
		}
		return out
	}
	str := sqltypes.NewString
	const all = "ds0:t_order_0 ds1:t_order_1 ds0:t_order_2 ds1:t_order_3"
	const refused = "refused: not co-located"
	cases := []struct {
		sql          string
		args1, args2 []sqltypes.Value
		want1, want2 string
	}{
		{"SELECT * FROM t_order WHERE order_id = ?", ints(7), ints(2), "standard ds1:t_order_3", "standard ds0:t_order_2"},
		{"SELECT * FROM t_order WHERE order_id = 2", nil, nil, "standard ds0:t_order_2", "standard ds0:t_order_2"},
		{"SELECT * FROM t_order o WHERE o.order_id = ?", ints(1), ints(4), "standard ds1:t_order_1", "standard ds0:t_order_0"},
		{"SELECT * FROM t_order WHERE t_order.order_id = ?", ints(3), ints(5), "standard ds1:t_order_3", "standard ds1:t_order_1"},
		{"SELECT * FROM t_order WHERE order_id IN (?, ?)", ints(0, 3), ints(5, 1), "standard ds0:t_order_0 ds1:t_order_3", "standard ds1:t_order_1"},
		{"SELECT * FROM t_order WHERE order_id BETWEEN ? AND ?", ints(1, 2), ints(4, 9), "standard ds1:t_order_1 ds0:t_order_2", "broadcast " + all},
		{"SELECT * FROM t_order WHERE order_id >= ? AND order_id <= ?", ints(1, 2), ints(6, 6), "standard ds1:t_order_1 ds0:t_order_2", "standard ds0:t_order_2"},
		{"SELECT * FROM t_order WHERE ? = order_id", ints(5), ints(8), "standard ds1:t_order_1", "standard ds0:t_order_0"},
		{"SELECT * FROM t_order WHERE order_id = - ?", ints(-3), ints(-6), "standard ds1:t_order_3", "standard ds0:t_order_2"}, // -(-3) = 3
		{"SELECT * FROM t_order WHERE status = ?", []sqltypes.Value{str("open")}, []sqltypes.Value{str("paid")}, "broadcast " + all, "broadcast " + all},
		{"SELECT * FROM t_order", nil, nil, "broadcast " + all, "broadcast " + all},
		{"UPDATE t_order SET status = ? WHERE order_id = ?", []sqltypes.Value{str("paid"), sqltypes.NewInt(6)}, []sqltypes.Value{str("paid"), sqltypes.NewInt(1)}, "standard ds0:t_order_2", "standard ds1:t_order_1"},
		{"DELETE FROM t_order WHERE order_id = ?", ints(2), ints(3), "standard ds0:t_order_2", "standard ds1:t_order_3"},
		{"DELETE FROM t_order WHERE order_id IN (?, ?, ?)", ints(0, 1, 2), ints(4, 8, 12), "standard ds0:t_order_0 ds1:t_order_1 ds0:t_order_2", "standard ds0:t_order_0"},
		{"SELECT * FROM t_unknown WHERE id = ?", ints(1), ints(2), "default ds0:", "default ds0:"},
		// Equality wins over range when merged on the same column.
		{"SELECT * FROM t_order WHERE order_id > ? AND order_id = ?", ints(0, 3), ints(9, 2), "standard ds1:t_order_3", "standard ds0:t_order_2"},
		// A table-qualified comparison outranks an unqualified one.
		{"SELECT * FROM t_order o WHERE order_id = ? AND o.order_id = ?", ints(1, 2), ints(2, 1), "standard ds0:t_order_2", "standard ds1:t_order_1"},
		// NOT and OR never narrow.
		{"SELECT * FROM t_order WHERE order_id NOT IN (?) AND NOT (order_id = ?)", ints(1, 2), ints(3, 4), "broadcast " + all, "broadcast " + all},
		{"SELECT * FROM t_order WHERE order_id = ? OR order_id = ?", ints(1, 2), ints(3, 4), "broadcast " + all, "broadcast " + all},
		// Binding join: pairwise, routed by WHERE.
		{"SELECT * FROM t_order o JOIN t_item i ON o.order_id = i.order_id WHERE o.order_id IN (?, ?)", ints(1, 2), ints(3, 7),
			"binding ds1:t_item_1+t_order_1 ds0:t_item_2+t_order_2", "binding ds1:t_item_3+t_order_3"},
		// Join routed by an equality in ON.
		{"SELECT * FROM t_order o JOIN t_item i ON o.order_id = i.order_id AND o.order_id = ?", ints(3), ints(4),
			"binding ds1:t_item_3+t_order_3", "binding ds0:t_item_0+t_order_0"},
		// Cartesian join: every combination of each side's nodes, refused
		// when one spans sources.
		{"SELECT * FROM t_order o JOIN t_other x ON o.order_id = x.order_id WHERE o.order_id = ? AND x.order_id IN (?, ?)", ints(1, 1, 3), ints(2, 0, 1),
			"cartesian ds1:t_order_1+t_other_1 ds1:t_order_1+t_other_3", refused},
		// A sharded table joined with a broadcast one routes as the sharded table.
		{"SELECT * FROM t_order, t_dict WHERE t_order.order_id = ?", ints(2), ints(3), "standard ds0:t_order_2", "standard ds1:t_order_3"},
		// Broadcast-table reads go to the default source, writes everywhere.
		{"SELECT * FROM t_dict WHERE id = ?", ints(1), ints(2), "default ds0:", "default ds0:"},
		{"UPDATE t_dict SET v = ? WHERE k = ?", ints(1, 2), ints(3, 4), "broadcast ds0: ds1:", "broadcast ds0: ds1:"},
		{"INSERT INTO t_dict (k, v) VALUES (?, ?)", ints(1, 2), ints(3, 4), "broadcast ds0: ds1:", "broadcast ds0: ds1:"},
		{"INSERT INTO t_order (order_id) VALUES (?)", ints(6), ints(7), "standard ds0:t_order_2[0]", "standard ds1:t_order_3[0]"},
		{"INSERT INTO t_order (order_id, status) VALUES (?, ?), (? + 1, ?), (- ?, ?)",
			[]sqltypes.Value{sqltypes.NewInt(1), str("a"), sqltypes.NewInt(4), str("b"), sqltypes.NewInt(-2), str("c")},
			[]sqltypes.Value{sqltypes.NewInt(8), str("a"), sqltypes.NewInt(3), str("b"), sqltypes.NewInt(-4), str("c")},
			"standard ds1:t_order_1[0 1] ds0:t_order_2[2]", "standard ds0:t_order_0[0 1 2]"},
		// Column-less INSERT: the sharding key's position comes from the schema.
		{"INSERT INTO t_order VALUES (?, ?), (?, ?)", []sqltypes.Value{str("a"), sqltypes.NewInt(5), str("b"), sqltypes.NewInt(6)},
			[]sqltypes.Value{str("a"), sqltypes.NewInt(3), str("b"), sqltypes.NewInt(7)},
			"standard ds1:t_order_1[0] ds0:t_order_2[1]", "standard ds1:t_order_3[0 1]"},
		{"CREATE INDEX idx_status ON t_order (status)", nil, nil, "broadcast " + all, "broadcast " + all},
		{"TRUNCATE TABLE t_dict", nil, nil, "broadcast ds0: ds1:", "broadcast ds0: ds1:"},
		{"DROP TABLE t_unknown", nil, nil, "default ds0:", "default ds0:"},
	}
	for _, c := range cases {
		stmt := parse(t, c.sql)
		sk, ok := r.BuildSkeleton(stmt)
		if !ok {
			t.Errorf("BuildSkeleton(%q) refused", c.sql)
			continue
		}
		for i, b := range []struct {
			args []sqltypes.Value
			want string
		}{{c.args1, c.want1}, {c.args2, c.want2}, {c.args1, c.want1}} {
			got, err := sk.Route(b.args, nil)
			if b.want == refused {
				if _, ferr := r.Route(stmt, b.args, nil); !errors.Is(err, ErrNotColocated) || !errors.Is(ferr, ErrNotColocated) {
					t.Errorf("%q binding %d: %v, compiled afresh %v; want ErrNotColocated", c.sql, i, err, ferr)
				}
				continue
			}
			if err != nil {
				t.Errorf("%q binding %d: %v", c.sql, i, err)
				continue
			}
			if describe(got) != b.want {
				t.Errorf("%q binding %d:\n got %s\nwant %s", c.sql, i, describe(got), b.want)
			}
			if fresh, err := r.Route(stmt, b.args, nil); err != nil || !reflect.DeepEqual(fresh, got) {
				t.Errorf("%q binding %d: compiled afresh %+v %v, kept %+v", c.sql, i, fresh, err, got)
			}
		}
	}
}

// TestSkeletonCarriesItsRefusal: a statement that cannot be routed still
// compiles; binding it reports why.
// An identity update of the sharding key (SET uid = uid) keeps every row
// on its shard, so it compiles.
func TestSkeletonCarriesItsRefusal(t *testing.T) {
	r := fixture(t, true)
	anyErr := errors.New("any error")
	for sql, want := range map[string]error{ // nil: compiles and binds
		"UPDATE t_user SET uid = ? WHERE uid = ?":       ErrUpdateSharding,
		"UPDATE t_user u SET uid = name WHERE uid = 1":  ErrUpdateSharding,
		"UPDATE t_user u SET uid = o.uid WHERE uid = 1": ErrUpdateSharding,
		"BEGIN": anyErr,
		"UPDATE t_user SET uid = uid WHERE uid = 1":        nil,
		"UPDATE t_user SET uid = T_USER.uid WHERE uid = 1": nil,
		"UPDATE t_user u SET uid = U.uid WHERE u.uid = 1":  nil,
	} {
		sk, ok := r.BuildSkeleton(parse(t, sql))
		_, err := sk.Route(nil, nil)
		if want == nil {
			if !ok || err != nil {
				t.Errorf("%q: routable %v, bind error %v; want a route", sql, ok, err)
			}
			continue
		}
		if ok {
			t.Errorf("BuildSkeleton(%q) reported a routable statement", sql)
		}
		if err == nil || (want != anyErr && !errors.Is(err, want)) {
			t.Errorf("%q: bind error %v, want %v", sql, err, want)
		}
	}
	// A row without the sharding key is refused at bind time.
	sk, _ := r.BuildSkeleton(parse(t, "INSERT INTO t_user (name) VALUES (?)"))
	if _, err := sk.Route([]sqltypes.Value{sqltypes.NewString("a")}, nil); !errors.Is(err, ErrNoShardingValue) {
		t.Errorf("keyless INSERT: %v", err)
	}
}

func intArgs(vs ...int64) []sqltypes.Value {
	out := make([]sqltypes.Value, len(vs))
	for i, v := range vs {
		out[i] = sqltypes.NewInt(v)
	}
	return out
}

// TestSkeletonRouteAllocations bounds what binding a compiled statement
// allocates on a 50-shard MOD AutoTable: the result, which holds a small
// route's units, and a range's picks — no node or pick list for an exact
// value, no condition map, no copy of an argument and no re-check of the
// rule's node index.
func TestSkeletonRouteAllocations(t *testing.T) {
	rs := sharding.NewRuleSet()
	rule, err := sharding.BuildAutoRule(sharding.AutoTableSpec{
		LogicTable: "sbtest", Resources: []string{"ds0", "ds1", "ds2", "ds3", "ds4"},
		ShardingColumn: "id", AlgorithmType: "MOD", ShardingCount: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	rs.AddRule(rule)
	r := newRouter(rs, []string{"ds0", "ds1", "ds2", "ds3", "ds4"})
	for _, c := range []struct {
		sql   string
		args  []sqltypes.Value
		units int
		max   float64
	}{
		{"SELECT c FROM sbtest WHERE id = ?", intArgs(7), 1, 1},
		{"SELECT c FROM sbtest WHERE id BETWEEN ? AND ?", intArgs(7, 8), 2, 2},
	} {
		sk, ok := r.BuildSkeleton(parse(t, c.sql))
		if !ok {
			t.Fatalf("BuildSkeleton(%q) refused", c.sql)
		}
		if res, err := sk.Route(c.args, nil); err != nil || len(res.Units) != c.units {
			t.Fatalf("%q: %+v %v", c.sql, res, err)
		}
		if n := testing.AllocsPerRun(200, func() { sk.Route(c.args, nil) }); n > c.max {
			t.Errorf("%q binds with %.0f allocations, ceiling %.0f", c.sql, n, c.max)
		} else {
			t.Logf("%q: %.0f allocations", c.sql, n)
		}
	}
}

// TestKeyObserverSeesEqualityKeys: an installed observer receives every
// equality sharding-key value a route binds — an =, each IN item, each row
// of a split INSERT — and no range bound.
func TestKeyObserverSeesEqualityKeys(t *testing.T) {
	r := fixture(t, true)
	var seen []string
	r.SetKeyObserver(func(table, column string, v sqltypes.Value) {
		seen = append(seen, fmt.Sprintf("%s.%s=%s", table, column, v.AsString()))
	})
	for _, c := range []struct {
		sql  string
		args []sqltypes.Value
		want []string
	}{
		{"SELECT * FROM t_user WHERE uid = ?", intArgs(3), []string{"t_user.uid=3"}},
		{"SELECT * FROM t_user WHERE uid IN (?, ?)", intArgs(4, 7), []string{"t_user.uid=4", "t_user.uid=7"}},
		{"INSERT INTO t_user (uid, name) VALUES (?, 'a'), (?, 'b'), (? + 1, 'c')", intArgs(1, 2, 4), []string{"t_user.uid=1", "t_user.uid=2", "t_user.uid=5"}},
		{"SELECT * FROM t_user WHERE uid BETWEEN ? AND ?", intArgs(1, 9), nil},
	} {
		seen = nil
		sk, _ := r.BuildSkeleton(parse(t, c.sql))
		if _, err := sk.Route(c.args, nil); err != nil {
			t.Fatalf("%q: %v", c.sql, err)
		}
		if !reflect.DeepEqual(seen, c.want) {
			t.Errorf("%q: observed %v, want %v", c.sql, seen, c.want)
		}
	}
}

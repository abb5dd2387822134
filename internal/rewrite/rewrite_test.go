package rewrite

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"shardingsphere/internal/route"
	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
)

// newRouter builds a router over rs, published once.
func newRouter(rs *sharding.RuleSet, sources []string) *route.Router {
	var p atomic.Pointer[sharding.RuleSet]
	p.Store(rs)
	return route.New(&p, sources)
}

func fixtureRouter(t *testing.T) *route.Router {
	t.Helper()
	rs := sharding.NewRuleSet()
	rs.DefaultDataSource = "ds0"
	for _, table := range []string{"t_user", "t_order"} {
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
	if err := rs.AddBindingGroup("t_user", "t_order"); err != nil {
		t.Fatal(err)
	}
	return newRouter(rs, []string{"ds0", "ds1"})
}

func rewriteSQL(t *testing.T, sql string, args ...sqltypes.Value) *Result {
	t.Helper()
	r := fixtureRouter(t)
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := r.Route(stmt, args, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(nil).Rewrite(stmt, rt, args)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestIdentifierRewrite(t *testing.T) {
	res := rewriteSQL(t, "SELECT * FROM t_user WHERE uid = 3")
	if len(res.Units) != 1 {
		t.Fatalf("units: %+v", res.Units)
	}
	if !strings.Contains(res.Units[0].SQL, "t_user_1") {
		t.Fatalf("table not renamed: %s", res.Units[0].SQL)
	}
	if strings.Contains(res.Units[0].SQL, "FROM t_user ") {
		t.Fatalf("logic table leaked: %s", res.Units[0].SQL)
	}
}

func TestIdentifierRewriteIgnoresCase(t *testing.T) {
	// Rules name tables case-insensitively; the statement's spelling is
	// what gets replaced.
	res := rewriteSQL(t, "SELECT T_USER.name FROM T_USER WHERE T_USER.uid = 3")
	want := SQLUnit{DataSource: "ds1", SQL: "SELECT t_user_1.name FROM t_user_1 WHERE t_user_1.uid = 3",
		LogicTable: "t_user", ActualTable: "t_user_1"}
	if len(res.Units) != 1 || !reflect.DeepEqual(res.Units[0], want) {
		t.Fatalf("units: %+v", res.Units)
	}
}

func TestBindingJoinRewrite(t *testing.T) {
	res := rewriteSQL(t, "SELECT * FROM t_user u JOIN t_order o ON u.uid = o.uid WHERE u.uid IN (1, 2)")
	if len(res.Units) != 2 {
		t.Fatalf("units: %d", len(res.Units))
	}
	for _, u := range res.Units {
		if strings.Contains(u.SQL, "t_user_0") && !strings.Contains(u.SQL, "t_order_0") {
			t.Fatalf("binding rename misaligned: %s", u.SQL)
		}
		if strings.Contains(u.SQL, "t_user_1") && !strings.Contains(u.SQL, "t_order_1") {
			t.Fatalf("binding rename misaligned: %s", u.SQL)
		}
	}
}

func TestDeriveOrderByColumn(t *testing.T) {
	// The paper's example: "SELECT oid FROM t_order ORDER BY uid" must
	// gain a derived uid column for the merger.
	res := rewriteSQL(t, "SELECT name FROM t_user ORDER BY uid")
	if res.Select.Derived != 1 {
		t.Fatalf("derived: %d", res.Select.Derived)
	}
	sql := res.Units[0].SQL
	if !strings.Contains(sql, "ORDER_BY_DERIVED_0") {
		t.Fatalf("derived column missing: %s", sql)
	}
	if len(res.Select.OrderBy) != 1 || res.Select.OrderBy[0].Index != 1 {
		t.Fatalf("order key: %+v", res.Select.OrderBy)
	}
	// The key's text matches an item's, but its "?" reads another argument:
	// it is derived, whatever the values bound.
	res = rewriteSQL(t, "SELECT age % ?, age % ? FROM t_user ORDER BY age % ?",
		sqltypes.NewInt(3), sqltypes.NewInt(5), sqltypes.NewInt(5))
	if res.Select.Derived != 1 || res.Select.OrderBy[0].Index != 2 || !reflect.DeepEqual(res.Units[0].Args,
		[]sqltypes.Value{sqltypes.NewInt(3), sqltypes.NewInt(5), sqltypes.NewInt(5), sqltypes.NewInt(5)}) {
		t.Fatalf("same-text key: %+v %+v", res.Select, res.Units[0])
	}
}

func TestNoDeriveWhenSelected(t *testing.T) {
	res := rewriteSQL(t, "SELECT uid, name FROM t_user ORDER BY uid")
	if res.Select.Derived != 0 {
		t.Fatalf("unnecessary derivation: %+v", res.Select)
	}
	if res.Select.OrderBy[0].Index != 0 {
		t.Fatalf("order key: %+v", res.Select.OrderBy)
	}
}

func TestStarOrderByResolvesByName(t *testing.T) {
	res := rewriteSQL(t, "SELECT * FROM t_user ORDER BY name DESC")
	if res.Select.Derived != 0 {
		t.Fatalf("star must not derive: %+v", res.Select)
	}
	key := res.Select.OrderBy[0]
	if key.Index != -1 || key.Name != "name" || !key.Desc {
		t.Fatalf("star order key: %+v", key)
	}
}

func TestAvgDecomposition(t *testing.T) {
	res := rewriteSQL(t, "SELECT AVG(age) FROM t_user")
	if sql := res.Units[0].SQL; sql != "SELECT SUM(age), COUNT(age) FROM t_user_0" {
		t.Fatalf("avg not decomposed: %s", sql)
	}
	if res.Select.Combine == nil || res.Select.Derived != 0 {
		t.Fatalf("merge context: %+v", res.Select)
	}
}

// TestGroupedUnitsSendPartials: a grouped statement's units compute its
// partials; HAVING, ORDER BY and LIMIT stay with the combine, and a
// statement with a DISTINCT aggregate has its rows sent instead.
func TestGroupedUnitsSendPartials(t *testing.T) {
	for _, c := range []struct{ sql, unit string }{
		// The benchmark's range sum: the unit text is the statement's own.
		{"SELECT SUM(age) FROM t_user WHERE uid BETWEEN ? AND ?", "SELECT SUM(age) FROM t_user_0 WHERE uid BETWEEN ? AND ?"},
		{"SELECT name, AVG(age) a FROM t_user GROUP BY name HAVING COUNT(*) > ? ORDER BY a DESC LIMIT ?",
			"SELECT name, SUM(age), COUNT(age), COUNT(*) FROM t_user_0 GROUP BY name"},
		{"SELECT age % ?, MAX(uid) - MIN(uid) FROM t_user GROUP BY 1 ORDER BY 1",
			"SELECT age % ?, age, MAX(uid), MIN(uid) FROM t_user_0 GROUP BY age % ?"},
		{"SELECT COUNT(DISTINCT age), MAX(uid) FROM t_user", "SELECT DISTINCT age, uid FROM t_user_0"},
		{"SELECT name, COUNT(DISTINCT age), COUNT(*) FROM t_user GROUP BY name", "SELECT name, age FROM t_user_0"},
	} {
		res := rewriteSQL(t, c.sql, sqltypes.NewInt(1), sqltypes.NewInt(100))
		if len(res.Units) != 2 || res.Units[0].SQL != c.unit || res.Select.Combine == nil || res.Select.Limit != nil {
			t.Errorf("%s:\n got %s %+v\nwant %s", c.sql, res.Units[0].SQL, res.Select, c.unit)
		}
	}
	// One data node runs the statement as written.
	res := rewriteSQL(t, "SELECT name, COUNT(*) FROM t_user WHERE uid = 2 GROUP BY name HAVING COUNT(*) > 1")
	if res.Units[0].SQL != "SELECT name, COUNT(*) FROM t_user_0 WHERE uid = 2 GROUP BY name HAVING COUNT(*) > 1" || res.Select.Combine != nil {
		t.Fatalf("single node: %s %+v", res.Units[0].SQL, res.Select)
	}
}

func TestPaginationRevision(t *testing.T) {
	res := rewriteSQL(t, "SELECT * FROM t_user ORDER BY uid LIMIT 20, 10")
	if u := res.Units[0]; !strings.HasSuffix(u.SQL, "LIMIT ?") || !reflect.DeepEqual(u.Args, []sqltypes.Value{sqltypes.NewInt(30)}) {
		t.Fatalf("pagination not revised: %s %v", u.SQL, u.Args)
	}
	li := res.Select.Limit
	if li == nil || !li.Revised || li.Offset != 20 || li.Count != 10 {
		t.Fatalf("limit info: %+v", li)
	}
}

func TestPaginationSingleNodeUntouched(t *testing.T) {
	res := rewriteSQL(t, "SELECT * FROM t_user WHERE uid = 2 ORDER BY name LIMIT 20, 10")
	sql := res.Units[0].SQL
	if !strings.Contains(sql, "LIMIT 20, 10") {
		t.Fatalf("single-node pagination rewritten: %s", sql)
	}
	if res.Select.Limit != nil {
		t.Fatalf("single-node limit context should be nil: %+v", res.Select.Limit)
	}
	if res.Select.Derived != 0 {
		t.Fatal("single-node query must not derive columns")
	}
}

func TestPaginationPlaceholders(t *testing.T) {
	res := rewriteSQL(t, "SELECT * FROM t_user ORDER BY uid LIMIT ?, ?",
		sqltypes.NewInt(5), sqltypes.NewInt(3))
	li := res.Select.Limit
	if li == nil || li.Offset != 5 || li.Count != 3 {
		t.Fatalf("placeholder limit: %+v", li)
	}
	if u := res.Units[0]; !strings.HasSuffix(u.SQL, "LIMIT ?") || !reflect.DeepEqual(u.Args, []sqltypes.Value{sqltypes.NewInt(8)}) {
		t.Fatalf("revised SQL: %s %v", u.SQL, u.Args)
	}
}

func TestBatchedInsertSplit(t *testing.T) {
	res := rewriteSQL(t, "INSERT INTO t_user (uid, name) VALUES (1, 'a'), (2, 'b'), (3, 'c')")
	if len(res.Units) != 2 {
		t.Fatalf("units: %d", len(res.Units))
	}
	for _, u := range res.Units {
		if strings.Contains(u.SQL, "t_user_1") {
			if !strings.Contains(u.SQL, "(1, 'a'), (3, 'c')") {
				t.Fatalf("odd shard rows: %s", u.SQL)
			}
		} else {
			if !strings.Contains(u.SQL, "(2, 'b')") || strings.Contains(u.SQL, "'a'") {
				t.Fatalf("even shard rows: %s", u.SQL)
			}
		}
	}
}

func TestSplitInsertBindsEachUnitItsRows(t *testing.T) {
	// Rows keep their placeholders when they split across units; a unit's
	// arguments are its rows' values, in order — nested ones included.
	res := rewriteSQL(t, "INSERT INTO t_user (uid, name, age) VALUES (?, ?, - ?), (?, ?, ? + 1), (?, 'c', 1.5)",
		sqltypes.NewInt(1), sqltypes.NewString("a"), sqltypes.NewInt(30),
		sqltypes.NewInt(2), sqltypes.NewString("b"), sqltypes.NewInt(31),
		sqltypes.NewInt(3))
	want := []SQLUnit{
		{DataSource: "ds1", SQL: "INSERT INTO t_user_1 (uid, name, age) VALUES (?, ?, -(?)), (?, 'c', 1.5)",
			Args:       []sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewString("a"), sqltypes.NewInt(30), sqltypes.NewInt(3)},
			LogicTable: "t_user", ActualTable: "t_user_1"},
		{DataSource: "ds0", SQL: "INSERT INTO t_user_0 (uid, name, age) VALUES (?, ?, ? + 1)",
			Args:       []sqltypes.Value{sqltypes.NewInt(2), sqltypes.NewString("b"), sqltypes.NewInt(31)},
			LogicTable: "t_user", ActualTable: "t_user_0"},
	}
	if !reflect.DeepEqual(res.Units, want) {
		t.Fatalf("units:\n got %+v\nwant %+v", res.Units, want)
	}
}

func TestSingleUnitInsertKeepsArgs(t *testing.T) {
	res := rewriteSQL(t, "INSERT INTO t_user (uid, name) VALUES (?, ?)",
		sqltypes.NewInt(1), sqltypes.NewString("a"))
	if len(res.Units) != 1 {
		t.Fatalf("units: %d", len(res.Units))
	}
	if !strings.Contains(res.Units[0].SQL, "?") || len(res.Units[0].Args) != 2 {
		t.Fatalf("single insert must keep placeholders: %s %v", res.Units[0].SQL, res.Units[0].Args)
	}
}

func TestUpdateDeleteRewrite(t *testing.T) {
	res := rewriteSQL(t, "UPDATE t_user SET name = 'x' WHERE uid = 3")
	if len(res.Units) != 1 || !strings.Contains(res.Units[0].SQL, "t_user_1") {
		t.Fatalf("update rewrite: %+v", res.Units)
	}
	res = rewriteSQL(t, "DELETE FROM t_user WHERE name = 'x'")
	if len(res.Units) != 2 {
		t.Fatalf("delete broadcast rewrite: %+v", res.Units)
	}
}

func TestDDLRewrite(t *testing.T) {
	res := rewriteSQL(t, "CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(20))")
	if len(res.Units) != 2 {
		t.Fatalf("ddl units: %d", len(res.Units))
	}
	found := map[string]bool{}
	for _, u := range res.Units {
		for _, actual := range []string{"t_user_0", "t_user_1"} {
			if strings.Contains(u.SQL, actual) {
				found[actual] = true
			}
		}
	}
	if len(found) != 2 {
		t.Fatalf("ddl renames: %+v", res.Units)
	}
}

func TestDialectSerialization(t *testing.T) {
	r := fixtureRouter(t)
	stmt, _ := sqlparser.Parse("SELECT * FROM t_user ORDER BY uid LIMIT 5, 10")
	rt, _ := r.Route(stmt, nil, nil)
	rw := New(func(ds string) sqlparser.Dialect {
		if ds == "ds1" {
			return sqlparser.DialectPostgreSQL
		}
		return sqlparser.DialectMySQL
	})
	res, err := rw.Rewrite(stmt, rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pagination was revised multi-node, so both dialects emit one LIMIT
	// operand that reads 15, never the "off, count" comma syntax.
	for _, u := range res.Units {
		if !strings.HasSuffix(u.SQL, "LIMIT ?") || !reflect.DeepEqual(u.Args, []sqltypes.Value{sqltypes.NewInt(15)}) {
			t.Fatalf("revised limit: %s %v", u.SQL, u.Args)
		}
	}

	// Single-node routes keep the original pagination in each dialect.
	stmt2, _ := sqlparser.Parse("SELECT * FROM t_user WHERE uid = 3 ORDER BY uid LIMIT 5, 10")
	rt2, _ := r.Route(stmt2, nil, nil) // uid=3 → ds1 (PostgreSQL)
	res2, err := rw.Rewrite(stmt2, rt2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res2.Units[0].SQL, "LIMIT 10 OFFSET 5") {
		t.Fatalf("pg dialect: %s", res2.Units[0].SQL)
	}
	stmt3, _ := sqlparser.Parse("SELECT * FROM t_user WHERE uid = 2 ORDER BY uid LIMIT 5, 10")
	rt3, _ := r.Route(stmt3, nil, nil) // uid=2 → ds0 (MySQL)
	res3, err := rw.Rewrite(stmt3, rt3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res3.Units[0].SQL, "LIMIT 5, 10") {
		t.Fatalf("mysql dialect: %s", res3.Units[0].SQL)
	}
}

// TestRenderSplicesTheActualTable: one template renders any actual table
// in either dialect, quoting the name only where the dialect must.
func TestRenderSplicesTheActualTable(t *testing.T) {
	cases := []struct{ sql, table, want string }{
		{"SELECT * FROM t_order WHERE order_id = ?", "t_order", "SELECT * FROM %s WHERE order_id = ?"},
		{"SELECT a, b FROM t_order o WHERE o.order_id = ? ORDER BY a LIMIT ?", "t_order", "SELECT a, b FROM %s o WHERE o.order_id = ? ORDER BY a LIMIT ?"},
		{"SELECT * FROM t_order WHERE t_order.order_id = ? AND t_order.status = ?", "t_order", "SELECT * FROM %[1]s WHERE %[1]s.order_id = ? AND %[1]s.status = ?"},
		{"UPDATE t_order SET status = ? WHERE order_id = ?", "t_order", "UPDATE %s SET status = ? WHERE order_id = ?"},
		{"DELETE FROM t_order WHERE order_id IN (?, ?)", "t_order", "DELETE FROM %s WHERE order_id IN (?, ?)"},
		{"SELECT COUNT(*) FROM `select` WHERE id = ?", "select", "SELECT COUNT(*) FROM %s WHERE id = ?"}, // quoted logic table
		{"INSERT INTO t_order (order_id, status) VALUES (?, ?), (?, 'x')", "t_order", "INSERT INTO %s (order_id, status) VALUES (?, ?), (?, 'x')"},
		{"DROP TABLE IF EXISTS t_order", "t_order", "DROP TABLE IF EXISTS %s"},
	}
	for _, c := range cases {
		tmpl, ok := NewTemplate(parseStmt(t, c.sql), c.table)
		if !ok {
			t.Fatalf("NewTemplate(%q) refused", c.sql)
		}
		for _, r := range []struct {
			d              sqlparser.Dialect
			actual, quoted string
		}{
			{sqlparser.DialectMySQL, "t_3", "t_3"}, {sqlparser.DialectMySQL, "some table", "`some table`"},
			{sqlparser.DialectPostgreSQL, "t_3", "t_3"}, {sqlparser.DialectPostgreSQL, "some table", `"some table"`},
		} {
			for i := 0; i < 2; i++ { // the second rendering reads the memoized form
				if got, ok := tmpl.Render(r.d, r.actual); !ok || got != fmt.Sprintf(c.want, r.quoted) {
					t.Errorf("%q (%v, →%s):\n got %q\nwant %q", c.sql, r.d, r.actual, got, fmt.Sprintf(c.want, r.quoted))
				}
			}
		}
	}
}

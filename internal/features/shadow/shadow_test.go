package shadow

import (
	"testing"

	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
)

func newFeature() *Feature {
	return New(Config{
		Column:  "is_shadow",
		Mapping: map[string]string{"ds0": "ds0_shadow", "ds1": "ds1_shadow"},
	})
}

func parse(t *testing.T, sql string) sqlparser.Statement {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

func TestShadowInsertDiverted(t *testing.T) {
	f := newFeature()
	stmt := parse(t, "INSERT INTO t_order (oid, is_shadow) VALUES (1, 1)")
	if got := f.ResolveSource("ds0", false, false, stmt, nil); got != "ds0_shadow" {
		t.Fatalf("shadow insert: %s", got)
	}
	prod := parse(t, "INSERT INTO t_order (oid, is_shadow) VALUES (1, 0)")
	if got := f.ResolveSource("ds0", false, false, prod, nil); got != "ds0" {
		t.Fatalf("production insert diverted: %s", got)
	}
	noCol := parse(t, "INSERT INTO t_order (oid) VALUES (1)")
	if got := f.ResolveSource("ds0", false, false, noCol, nil); got != "ds0" {
		t.Fatalf("markerless insert diverted: %s", got)
	}
}

func TestShadowSelectDiverted(t *testing.T) {
	f := newFeature()
	stmt := parse(t, "SELECT * FROM t_order WHERE oid = 5 AND is_shadow = 1")
	if got := f.ResolveSource("ds1", true, false, stmt, nil); got != "ds1_shadow" {
		t.Fatalf("shadow select: %s", got)
	}
	// Reversed operands too.
	stmt = parse(t, "SELECT * FROM t_order WHERE 1 = is_shadow")
	if got := f.ResolveSource("ds1", true, false, stmt, nil); got != "ds1_shadow" {
		t.Fatalf("reversed shadow select: %s", got)
	}
	prod := parse(t, "SELECT * FROM t_order WHERE oid = 5")
	if got := f.ResolveSource("ds1", true, false, prod, nil); got != "ds1" {
		t.Fatalf("production select diverted: %s", got)
	}
}

func TestShadowUpdateDelete(t *testing.T) {
	f := newFeature()
	up := parse(t, "UPDATE t_order SET v = 1 WHERE is_shadow = 1")
	if got := f.ResolveSource("ds0", false, false, up, nil); got != "ds0_shadow" {
		t.Fatalf("shadow update: %s", got)
	}
	del := parse(t, "DELETE FROM t_order WHERE is_shadow = 1 AND oid = 3")
	if got := f.ResolveSource("ds0", false, false, del, nil); got != "ds0_shadow" {
		t.Fatalf("shadow delete: %s", got)
	}
}

func TestUnmappedSourcePassthrough(t *testing.T) {
	f := newFeature()
	stmt := parse(t, "SELECT * FROM t WHERE is_shadow = 1")
	if got := f.ResolveSource("ds9", true, false, stmt, nil); got != "ds9" {
		t.Fatalf("unmapped: %s", got)
	}
}

func TestCustomMarkerValue(t *testing.T) {
	f := New(Config{
		Column:  "env",
		Value:   sqltypes.NewString("test"),
		Mapping: map[string]string{"ds0": "ds0_shadow"},
	})
	stmt := parse(t, "SELECT * FROM t WHERE env = 'test'")
	if got := f.ResolveSource("ds0", true, false, stmt, nil); got != "ds0_shadow" {
		t.Fatalf("custom marker: %s", got)
	}
	stmt = parse(t, "SELECT * FROM t WHERE env = 'prod'")
	if got := f.ResolveSource("ds0", true, false, stmt, nil); got != "ds0" {
		t.Fatalf("wrong marker diverted: %s", got)
	}
}

func TestDDLNeverDiverted(t *testing.T) {
	f := newFeature()
	stmt := parse(t, "CREATE TABLE t (id INT PRIMARY KEY)")
	if got := f.ResolveSource("ds0", false, false, stmt, nil); got != "ds0" {
		t.Fatalf("ddl diverted: %s", got)
	}
}

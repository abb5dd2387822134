package readwrite

import (
	"testing"

	"shardingsphere/internal/sqlparser"
)

func mustParse(t *testing.T, sql string) sqlparser.Statement {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

func newFeature(t *testing.T) *Feature {
	t.Helper()
	f, err := New(&Group{
		Name:     "ds_rw",
		Primary:  "primary0",
		Replicas: []string{"replica0", "replica1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestReadsRotateAcrossReplicas(t *testing.T) {
	f := newFeature(t)
	sel := mustParse(t, "SELECT 1")
	got := map[string]int{}
	for i := 0; i < 10; i++ {
		got[f.ResolveSource("ds_rw", true, false, sel)]++
	}
	if got["replica0"] != 5 || got["replica1"] != 5 {
		t.Fatalf("rotation: %v", got)
	}
	if got["primary0"] != 0 {
		t.Fatal("reads hit primary")
	}
}

func TestWritesGoToPrimary(t *testing.T) {
	f := newFeature(t)
	ins := mustParse(t, "INSERT INTO t VALUES (1)")
	if got := f.ResolveSource("ds_rw", false, false, ins); got != "primary0" {
		t.Fatalf("write: %s", got)
	}
}

func TestTransactionsPinPrimary(t *testing.T) {
	f := newFeature(t)
	sel := mustParse(t, "SELECT 1")
	if got := f.ResolveSource("ds_rw", true, true, sel); got != "primary0" {
		t.Fatalf("in-tx read: %s", got)
	}
}

func TestUnknownGroupPassthrough(t *testing.T) {
	f := newFeature(t)
	if got := f.ResolveSource("other", true, false, nil); got != "other" {
		t.Fatalf("passthrough: %s", got)
	}
}

func TestDisabledReplicaSkipped(t *testing.T) {
	f := newFeature(t)
	sel := mustParse(t, "SELECT 1")
	f.DisableReplica("ds_rw", "replica0")
	for i := 0; i < 5; i++ {
		if got := f.ResolveSource("ds_rw", true, false, sel); got != "replica1" {
			t.Fatalf("disabled replica used: %s", got)
		}
	}
	f.DisableReplica("ds_rw", "replica1")
	if got := f.ResolveSource("ds_rw", true, false, sel); got != "primary0" {
		t.Fatalf("all replicas down must fall back to primary: %s", got)
	}
	f.EnableReplica("ds_rw", "replica0")
	if got := f.ResolveSource("ds_rw", true, false, sel); got != "replica0" {
		t.Fatalf("re-enabled replica unused: %s", got)
	}
}

func TestInvalidGroup(t *testing.T) {
	if _, err := New(&Group{Name: "", Primary: "p"}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := New(&Group{Name: "g", Primary: ""}); err == nil {
		t.Fatal("empty primary accepted")
	}
}

package readwrite

import (
	"testing"
	"time"

	"shardingsphere/internal/governor"
	"shardingsphere/internal/registry"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/storage"
)

func mustParse(t *testing.T, sql string) sqlparser.Statement {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

// newFeature builds group ds_rw (primary0; replica0, replica1, replica2)
// and a governor with one breaker per source.
func newFeature(t *testing.T) (*Feature, *governor.Governor) {
	t.Helper()
	f, err := New(&Group{
		Name:     "ds_rw",
		Primary:  "primary0",
		Replicas: []string{"replica0", "replica1", "replica2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]*resource.DataSource{}
	for _, name := range []string{"primary0", "replica0", "replica1", "replica2"} {
		sources[name] = resource.NewEmbedded(storage.NewEngine(name), nil)
	}
	gov := governor.New(registry.New(), sources)
	t.Cleanup(gov.Stop)
	return f, gov
}

// openBreaker reports transient failures to ds until its breaker opens.
func openBreaker(t *testing.T, gov *governor.Governor, ds string) {
	t.Helper()
	for i := 0; i < gov.BreakThreshold; i++ {
		gov.Breaker(ds).Report(resource.ErrConnClosed)
	}
	if st := gov.BreakerStates()[ds]; st != governor.BreakerOpen {
		t.Fatalf("%s breaker: %v, want open", ds, st)
	}
}

// reads resolves n plain reads and counts where each went.
func reads(f *Feature, gov *governor.Governor, sel sqlparser.Statement, n int) map[string]int {
	got := map[string]int{}
	for i := 0; i < n; i++ {
		got[f.ResolveSource("ds_rw", true, false, sel, gov)]++
	}
	return got
}

func TestReadsRotateAcrossReplicas(t *testing.T) {
	f, gov := newFeature(t)
	got := reads(f, gov, mustParse(t, "SELECT 1"), 9)
	if got["replica0"] != 3 || got["replica1"] != 3 || got["replica2"] != 3 {
		t.Fatalf("rotation: %v", got)
	}
	if got["primary0"] != 0 {
		t.Fatal("reads hit primary")
	}
}

func TestWritesGoToPrimary(t *testing.T) {
	f, gov := newFeature(t)
	ins := mustParse(t, "INSERT INTO t VALUES (1)")
	if got := f.ResolveSource("ds_rw", false, false, ins, gov); got != "primary0" {
		t.Fatalf("write: %s", got)
	}
}

func TestTransactionsPinPrimary(t *testing.T) {
	f, gov := newFeature(t)
	sel := mustParse(t, "SELECT 1")
	if got := f.ResolveSource("ds_rw", true, true, sel, gov); got != "primary0" {
		t.Fatalf("in-tx read: %s", got)
	}
}

func TestUnknownGroupPassthrough(t *testing.T) {
	f, gov := newFeature(t)
	if got := f.ResolveSource("other", true, false, nil, gov); got != "other" {
		t.Fatalf("passthrough: %s", got)
	}
}

// TestReplicaRotationReadsTheBreaker: a replica is in rotation exactly
// while its breaker would admit a read (Governor.Ready), the others share
// its reads evenly, and resolving claims no probe slot.
func TestReplicaRotationReadsTheBreaker(t *testing.T) {
	sel := mustParse(t, "SELECT 1")
	// spread reports whether the reads went to the replicas named, evenly.
	spread := func(got map[string]int, n int, replicas ...string) bool {
		for _, r := range replicas {
			if got[r] != n/len(replicas) {
				return false
			}
		}
		return true
	}
	t.Run("forced replica skipped", func(t *testing.T) {
		f, gov := newFeature(t)
		if err := gov.BreakSource("replica0", true); err != nil {
			t.Fatal(err)
		}
		if got := reads(f, gov, sel, 6); !spread(got, 6, "replica1", "replica2") {
			t.Fatalf("reads with replica0 forced open: %v", got)
		}
		if err := gov.BreakSource("replica0", false); err != nil {
			t.Fatal(err)
		}
		if got := reads(f, gov, sel, 6); !spread(got, 6, "replica0", "replica1", "replica2") {
			t.Fatalf("reads after replica0 is released: %v", got)
		}
	})
	t.Run("every replica forced reads the primary", func(t *testing.T) {
		f, gov := newFeature(t)
		for _, r := range []string{"replica0", "replica1", "replica2"} {
			if err := gov.BreakSource(r, true); err != nil {
				t.Fatal(err)
			}
		}
		if got := reads(f, gov, sel, 4); got["primary0"] != 4 {
			t.Fatalf("reads with every replica forced open: %v", got)
		}
	})
	t.Run("open replica past its cool-down is chosen", func(t *testing.T) {
		f, gov := newFeature(t)
		gov.CoolDown = time.Hour
		openBreaker(t, gov, "replica0")
		if got := reads(f, gov, sel, 4); !spread(got, 4, "replica1", "replica2") {
			t.Fatalf("reads within replica0's cool-down: %v", got)
		}
		gov.CoolDown = 0
		if got := reads(f, gov, sel, 6); !spread(got, 6, "replica0", "replica1", "replica2") {
			t.Fatalf("reads past replica0's cool-down: %v", got)
		}
		if st := gov.BreakerStates()["replica0"]; st != governor.BreakerOpen {
			t.Fatalf("resolving claimed replica0's probe slot: %v", st)
		}
	})
	t.Run("replica whose probe slot is held is skipped", func(t *testing.T) {
		f, gov := newFeature(t)
		gov.CoolDown = time.Hour
		openBreaker(t, gov, "replica0")
		gov.CoolDown = 0
		if _, ok := gov.Admit([]string{"replica0"}); !ok {
			t.Fatal("Admit refused replica0 past its cool-down")
		}
		gov.CoolDown = time.Hour // the claimed slot stays held
		if got := reads(f, gov, sel, 4); !spread(got, 4, "replica1", "replica2") {
			t.Fatalf("reads while replica0's probe is in flight: %v", got)
		}
		gov.Breaker("replica0").Report(nil)
		if got := reads(f, gov, sel, 6); !spread(got, 6, "replica0", "replica1", "replica2") {
			t.Fatalf("reads after replica0's probe succeeded: %v", got)
		}
	})
}

// TestResolveSourceAllocatesNothing: picking a replica reads the breakers
// in place, on the calm path and off it.
func TestResolveSourceAllocatesNothing(t *testing.T) {
	f, gov := newFeature(t)
	sel := mustParse(t, "SELECT 1")
	read := func() { f.ResolveSource("ds_rw", true, false, sel, gov) }
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Fatalf("calm: %v allocs per resolve", n)
	}
	if err := gov.BreakSource("replica0", true); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Fatalf("replica0 forced open: %v allocs per resolve", n)
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

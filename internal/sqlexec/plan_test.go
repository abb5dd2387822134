package sqlexec

import (
	"fmt"
	"sync"
	"testing"

	"shardingsphere/internal/sights"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
)

// retained reports whether the processor holds a select plan for the text.
func retained(p *Processor, sql string) *selectPlan {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if st := p.cache[sql]; st != nil {
		return st.plan.Load()
	}
	return nil
}

// fresh runs the text on a new processor over the same engine: its first
// execution there, so nothing it uses was retained.
func fresh(t *testing.T, e *storage.Engine, sql string, args ...sqltypes.Value) *Result {
	t.Helper()
	return mustExec(t, NewProcessor(e).NewSession(), sql, args...)
}

func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if fmt.Sprint(got.Columns, got.Rows) != fmt.Sprint(want.Columns, want.Rows) {
		t.Fatalf("%s:\n got %v %v\nwant %v %v", what, got.Columns, got.Rows, want.Columns, want.Rows)
	}
}

// TestSelectPlanRetainedWithItsEntry: a text keeps its plan from the
// execution that keeps its cache entry, the sights.Keep-th.
func TestSelectPlanRetainedWithItsEntry(t *testing.T) {
	e := storage.NewEngine("ds0")
	p := NewProcessor(e)
	s := p.NewSession()
	seedUsers(t, s)
	const q = "SELECT name FROM t_user WHERE uid BETWEEN ? AND ? ORDER BY age, name"
	args := []sqltypes.Value{sqltypes.NewInt(2), sqltypes.NewInt(4)}
	heat := p.Stats().tableStat("T_USER")
	reads0 := heat.reads.Load()
	first := mustExec(t, s, q, args...)
	second := mustExec(t, s, q, args...)
	if retained(p, q) != nil {
		t.Fatalf("a text must not retain a plan before execution %d", sights.Keep)
	}
	third := mustExec(t, s, q, args...)
	plan := retained(p, q)
	if plan == nil {
		t.Fatalf("execution %d must retain the plan", sights.Keep)
	}
	sameResult(t, "second", second, first)
	sameResult(t, "third", third, first)
	if len(first.Rows) != 3 || first.Rows[0][0].S != "bob" {
		t.Fatalf("rows: %v", first.Rows)
	}
	// Another session reaches the same plan.
	sameResult(t, "other session", mustExec(t, p.NewSession(), q, args...), first)
	// Other bind values through the same plan.
	other := mustExec(t, s, q, sqltypes.NewInt(1), sqltypes.NewInt(1))
	if len(other.Rows) != 1 || other.Rows[0][0].S != "alice" {
		t.Fatalf("rebinding the retained plan: %v", other.Rows)
	}
	if retained(p, q) != plan {
		t.Fatal("a valid plan must be reused, not recompiled")
	}
	// The table's heat counters are charged by name on the first execution
	// and through the plan afterwards: every execution once.
	if _, err := s.Execute(q, args[0]); err == nil {
		t.Fatal("a missing bind argument must fail")
	}
	if reads, errs := heat.reads.Load()-reads0, heat.errors.Load(); reads != 6 || errs != 1 {
		t.Fatalf("heat counters after 6 executions, 1 failed: reads %d errors %d", reads, errs)
	}
}

// TestSelectPlanInvalidation: whatever DDL does to the table under a
// retained plan, the next execution returns what a processor that never
// saw the text returns.
func TestSelectPlanInvalidation(t *testing.T) {
	e := storage.NewEngine("ds0")
	p := NewProcessor(e)
	s := p.NewSession()
	seedUsers(t, s)
	queries := []string{
		"SELECT * FROM t_user WHERE age = 25 ORDER BY uid", // an index scan has no order of its own
		"SELECT name, age FROM t_user WHERE uid >= 2 ORDER BY uid",
		"SELECT age, COUNT(*) FROM t_user GROUP BY age ORDER BY age",
	}
	check := func(stage string) {
		t.Helper()
		for _, q := range queries {
			sameResult(t, stage+": "+q, mustExec(t, s, q), fresh(t, e, q))
		}
	}
	compile := func() {
		t.Helper()
		for _, q := range queries {
			for i := 0; i < sights.Keep; i++ {
				mustExec(t, s, q)
			}
			if retained(p, q) == nil {
				t.Fatalf("%q: no plan retained", q)
			}
		}
	}
	compile()
	check("compiled")

	// CREATE INDEX on the filtered column: the plan must pick it up.
	filtered := retained(p, queries[0])
	if filtered.access.kind != accessFull {
		t.Fatalf("before the index: access kind %d", filtered.access.kind)
	}
	mustExec(t, s, "CREATE INDEX idx_age ON t_user (age)")
	check("after CREATE INDEX")
	if after := retained(p, queries[0]); after == filtered || after.access.kind != accessIndex {
		t.Fatalf("index not picked up: recompiled=%v kind=%d", after != filtered, after.access.kind)
	}

	// TRUNCATE: same table, no rows.
	mustExec(t, s, "TRUNCATE TABLE t_user")
	check("after TRUNCATE")
	if res := mustExec(t, s, queries[0]); len(res.Rows) != 0 {
		t.Fatalf("rows after truncate: %v", res.Rows)
	}
	mustExec(t, s, "INSERT INTO t_user (uid, name, age) VALUES (7, 'gil', 25)")
	check("after refill")

	// DROP + CREATE with another column order: a stale binding would read
	// age where name now is.
	compile()
	mustExec(t, s, "DROP TABLE t_user")
	if _, err := s.Execute(queries[0]); err == nil {
		t.Fatal("select from a dropped table must fail")
	}
	mustExec(t, s, "CREATE TABLE t_user (age INT, uid INT PRIMARY KEY, name VARCHAR(64))")
	mustExec(t, s, "INSERT INTO t_user (uid, name, age) VALUES (1, 'zed', 25), (2, 'amy', 40)")
	check("after DROP + CREATE")
	res := mustExec(t, s, queries[0])
	if len(res.Rows) != 1 || fmt.Sprint(res.Columns) != "[age uid name]" || res.Rows[0][2].S != "zed" {
		t.Fatalf("star over the recreated table: %v %v", res.Columns, res.Rows)
	}

	// DDL through another processor on the same engine invalidates too.
	compile()
	mustExec(t, NewProcessor(e).NewSession(), "CREATE INDEX idx_name ON t_user (name)")
	before := retained(p, queries[1])
	check("after foreign DDL")
	if retained(p, queries[1]) == before {
		t.Fatal("plan survived DDL issued through another processor")
	}
}

// TestSelectPlanSharedAcrossSessions runs under -race in `make race`: two
// sessions of one processor compile, retain, invalidate and run the same
// plans at once.
func TestSelectPlanSharedAcrossSessions(t *testing.T) {
	e := storage.NewEngine("ds0")
	p := NewProcessor(e)
	seedUsers(t, p.NewSession())
	queries := []string{
		"SELECT name FROM t_user WHERE uid = ?",
		"SELECT COUNT(*) FROM t_user WHERE uid >= ?",
		"SELECT DISTINCT age FROM t_user WHERE uid >= ? ORDER BY age",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := p.NewSession()
			for i := 0; i < 300; i++ {
				q := queries[i%len(queries)]
				res, err := s.Execute(q, sqltypes.NewInt(1))
				if err != nil {
					errs <- fmt.Errorf("session %d: %q: %w", w, q, err)
					return
				}
				if len(res.Rows) == 0 {
					errs <- fmt.Errorf("session %d: %q returned nothing", w, q)
					return
				}
			}
		}(w)
	}
	// A third session churns the DDL epoch under them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := p.NewSession()
		for i := 0; i < 20; i++ {
			if _, err := s.Execute(fmt.Sprintf("CREATE INDEX idx_%d ON t_user (age)", i)); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

package core

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"shardingsphere/internal/digest"
	"shardingsphere/internal/plancache"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sights"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/transaction"
)

// The plan cache is the one table that remembers a statement shape: these
// tests pin what its entries do through Session.Execute.

// findDigest returns the live digest row of sql's shape.
func findDigest(t *testing.T, k *Kernel, sql string) (digest.EntrySnapshot, bool) {
	t.Helper()
	norm, ok := sqlparser.Normalize(sql)
	if !ok {
		t.Fatalf("%q does not normalize", sql)
	}
	var found []digest.EntrySnapshot
	shapes, _ := k.planCache.Digests()
	for _, s := range shapes {
		if s.Key == norm.Key {
			found = append(found, s)
		}
	}
	if len(found) > 1 {
		t.Fatalf("%q has %d digest rows", sql, len(found))
	}
	if len(found) == 0 {
		return digest.EntrySnapshot{}, false
	}
	return found[0], true
}

func mustDigest(t *testing.T, k *Kernel, sql string) digest.EntrySnapshot {
	t.Helper()
	d, ok := findDigest(t, k, sql)
	if !ok {
		t.Fatalf("%q has no digest row", sql)
	}
	return d
}

func cachedPlan(t *testing.T, k *Kernel, sql string) *plan {
	t.Helper()
	norm, _ := sqlparser.Normalize(sql)
	v, err := k.planCache.Plan(k.planCache.Lookup(norm.Key), k.Rules(), func() (any, error) {
		return nil, fmt.Errorf("%q: no current plan", sql)
	})
	if err != nil {
		t.Fatal(err)
	}
	return v.(*plan)
}

func TestDigestSurvivesPlanEpochBump(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	seed(t, s, 4)
	const q = "SELECT name FROM t_user WHERE uid = ?"
	uid := sqltypes.NewInt(1)
	for i := 0; i < nodeKeepSights; i++ {
		mustQuery(t, s, q, uid)
	}
	before := k.planCache.Stats()

	k.Publish(nil)
	// The data node's statement cache is warm, so the one parse is the
	// kernel compiling the shape again.
	if n := parses(func() { mustQuery(t, s, q, uid) }); n != 1 {
		t.Fatalf("execution after a publication parsed %d times, want 1 (the recompile)", n)
	}
	if d := mustDigest(t, k, q); d.Calls != nodeKeepSights+1 || d.Rows != nodeKeepSights+1 {
		t.Fatalf("counters did not continue across the publication: %+v", d)
	}
	after := k.planCache.Stats()
	if after.Misses != before.Misses+1 || after.Hits != before.Hits || after.Size != before.Size {
		t.Fatalf("stats %+v -> %+v: want one more miss and the same shapes", before, after)
	}
	if n := parses(func() { mustQuery(t, s, q, uid) }); n != 0 {
		t.Fatalf("recompiled plan not reused: %d parses", n)
	}
}

func TestShapeCompiledOnceUnderConcurrentFirstSight(t *testing.T) {
	k := newKernel(t, 2, 4)
	seed(t, k.NewSession(), 4)
	const q = "SELECT age FROM t_user WHERE uid = ?"
	uid := sqltypes.NewInt(1)
	// Warm the data node's statement cache with the unit's text through
	// executeStmt, which keeps nothing and leaves the plan cache alone.
	stmt, err := sqlparser.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodeKeepSights; i++ {
		res, err := k.NewSession().executeStmt(stmt, []sqltypes.Value{uid})
		if err != nil {
			t.Fatal(err)
		}
		resource.ReadAll(res.RS)
	}
	// The shape's first sights.Keep-1 executions compile for themselves.
	for i := 1; i < sights.Keep; i++ {
		mustQuery(t, k.NewSession(), q, uid)
	}

	const sessions = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	n := parses(func() {
		for i := 0; i < sessions; i++ {
			wg.Add(1)
			go func(s *Session) {
				defer wg.Done()
				<-start
				rs, err := s.Query(q, uid)
				if err != nil {
					t.Error(err)
					return
				}
				if rows, err := resource.ReadAll(rs); err != nil || len(rows) != 1 {
					t.Errorf("rows %v err %v", rows, err)
				}
			}(k.NewSession())
		}
		close(start)
		wg.Wait()
	})
	if n != 1 {
		t.Fatalf("%d concurrent sights that keep the plan parsed %d times, want 1", sessions, n)
	}
	if d := mustDigest(t, k, q); d.Calls != sessions+sights.Keep-1 {
		t.Fatalf("digest: %+v", d)
	}
}

// TestOffPlanExecutionsCountUnderTheShape: a locking read inside a
// transaction, a failing bind and a failing build run without the shape's
// plan — no hit, no miss, no compile — and still count under its entry.
func TestOffPlanExecutionsCountUnderTheShape(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	seed(t, s, 4)
	const q = "SELECT name FROM t_user WHERE uid = ? FOR UPDATE"
	uid := sqltypes.NewInt(1)
	for i := 0; i < sights.Keep; i++ {
		mustQuery(t, s, q, uid)
	}
	p := cachedPlan(t, k, q)
	before := k.planCache.Stats()

	s.SetTransactionType(transaction.XA)
	mustExec(t, s, "BEGIN")
	mustQuery(t, s, q, uid)
	mustQuery(t, s, q, uid)
	mustExec(t, s, "COMMIT")
	if _, err := s.Query(q); err == nil {
		t.Fatal("missing bind argument must error")
	}
	if after := k.planCache.Stats(); after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("off-plan executions touched the plan: %+v -> %+v", before, after)
	}
	if cachedPlan(t, k, q) != p {
		t.Fatal("off-plan executions replaced the plan")
	}
	if d := mustDigest(t, k, q); d.Calls != sights.Keep+3 || d.Errors != 1 || d.Rows != sights.Keep+2 {
		t.Fatalf("digest: %+v", d)
	}

	// A shape that normalizes but does not parse has an entry and no plan.
	const bad = "SELECT FROM WHERE uid = 1"
	for i := 0; i < 2; i++ {
		if _, err := s.Execute(bad); err == nil {
			t.Fatal("malformed statement must error")
		}
	}
	if d := mustDigest(t, k, bad); d.Calls != 2 || d.Errors != 2 {
		t.Fatalf("digest of the malformed shape: %+v", d)
	}
	norm, _ := sqlparser.Normalize(bad)
	if _, ok := k.planCache.Get(norm.Key); ok {
		t.Fatal("a failed build left a plan behind")
	}
}

// TestCanonicalTextFindsItsShape: a text spelled as its shape's key finds
// the shape by its own spelling once it ran with the plan kept. It shares
// the entry and the plan of its literal twin, each execution adds exactly
// one hit, a stale plan is rebuilt once, and a text short of arguments
// takes the normal path to its error without a hit.
func TestCanonicalTextFindsItsShape(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	seed(t, s, 4)
	const literal = "select name from t_user where uid = 3"
	const canonical = "SELECT name FROM t_user WHERE uid = ?"
	uid := sqltypes.NewInt(3)
	for i := 0; i < sights.Keep; i++ {
		mustQuery(t, s, literal)
	}
	p := cachedPlan(t, k, literal)
	mustQuery(t, s, canonical, uid)
	if _, norm := k.planCache.Probe(canonical); norm == nil || norm.Key != canonical || len(norm.Args) != 1 || norm.ForUpdate {
		t.Fatalf("%q is not served as its own normal form: %+v", canonical, norm)
	}

	const n = 5
	before := k.planCache.Stats()
	for i := 0; i < n; i++ {
		if rows := mustQuery(t, s, canonical, uid); len(rows) != 1 || rows[0][0].S != "user3" {
			t.Fatalf("canonical execution %d: %v", i, rows)
		}
	}
	after := k.planCache.Stats()
	if after.Hits != before.Hits+n || after.Misses != before.Misses || after.Size != before.Size {
		t.Fatalf("%d canonical executions: stats %+v -> %+v", n, before, after)
	}
	if cachedPlan(t, k, canonical) != p {
		t.Fatal("the canonical text compiled a plan of its own")
	}
	if d := mustDigest(t, k, literal); d.Calls != n+sights.Keep+1 || d.Rows != n+sights.Keep+1 {
		t.Fatalf("digest: %+v", d)
	}

	k.Publish(nil)
	for i, want := range [][2]uint64{{0, 1}, {1, 0}} { // hits, misses
		before = k.planCache.Stats()
		mustQuery(t, s, canonical, uid)
		after = k.planCache.Stats()
		if after.Hits-before.Hits != want[0] || after.Misses-before.Misses != want[1] {
			t.Fatalf("execution %d after the publication: stats %+v -> %+v", i, before, after)
		}
	}

	before = k.planCache.Stats()
	if _, err := s.Query(canonical); err == nil || !strings.Contains(err.Error(), "reads 1 bind arguments, 0 given") {
		t.Fatalf("canonical text without its argument: %v", err)
	}
	if after = k.planCache.Stats(); after.Hits != before.Hits {
		t.Fatalf("a short bind counted a hit: %+v -> %+v", before, after)
	}
}

// TestProbeServesRepeatedTexts replays the texts of the benchmark's
// Sysbench mix and of its loader: from their third sight the probe serves
// every normalizable text of the mix, whether spelled as its shape's key
// or not, and none of the loader's one-shot INSERTs; each execution of a
// normalizable text then counts one plan hit. Per transaction the probe
// serves point_select 1 statement of 1, range_read 14 of 16, write_txn 4
// of 6 and wire_read_write 18 of 20 (the rest are BEGIN and COMMIT);
// cold_shapes' texts never come back before their shape was evicted.
func TestProbeServesRepeatedTexts(t *testing.T) {
	k := sbtestKernel(t, 1000)
	s := k.NewSession()
	i, str := sqltypes.NewInt, sqltypes.NewString
	for run := 0; run <= sights.Keep; run++ {
		for _, c := range []struct {
			sql    string
			args   []sqltypes.Value
			served bool
		}{
			{"BEGIN", nil, false},
			{"SELECT c FROM sbtest WHERE id = ?", []sqltypes.Value{i(7)}, true},
			{"SELECT c FROM sbtest WHERE id BETWEEN ? AND ?", []sqltypes.Value{i(1), i(100)}, true},
			{"SELECT SUM(k) FROM sbtest WHERE id BETWEEN ? AND ?", []sqltypes.Value{i(1), i(100)}, true},
			{"SELECT c FROM sbtest WHERE id BETWEEN ? AND ? ORDER BY c", []sqltypes.Value{i(1), i(100)}, true},
			{"SELECT DISTINCT c FROM sbtest WHERE id BETWEEN ? AND ? ORDER BY c", []sqltypes.Value{i(1), i(100)}, true},
			{"UPDATE sbtest SET k = k + 1 WHERE id = ?", []sqltypes.Value{i(9)}, true},
			{"UPDATE sbtest SET c = ? WHERE id = ?", []sqltypes.Value{str("c"), i(9)}, true},
			{"DELETE FROM sbtest WHERE id = ?", []sqltypes.Value{i(9)}, true},
			{"INSERT INTO sbtest (id, k, c, pad) VALUES (?, ?, ?, ?)", []sqltypes.Value{i(9), i(9), str("c"), str("pad")}, true},
			{"COMMIT", nil, false},
			{fmt.Sprintf("INSERT INTO sbtest (id, k, c, pad) VALUES (%d, 1, 'c', 'pad'), (%d, 2, 'c', 'pad')", 2001+2*run, 2002+2*run), nil, false},
		} {
			before := k.planCache.Stats()
			drain(t, s, c.sql, c.args...)
			if run < sights.Keep {
				continue
			}
			after := k.planCache.Stats()
			hits := uint64(1)
			if _, ok := sqlparser.Normalize(c.sql); !ok {
				hits = 0
			}
			if after.Hits-before.Hits != hits || after.Misses != before.Misses {
				t.Errorf("%q: stats %+v -> %+v", c.sql, before, after)
			}
			if _, norm := k.planCache.Probe(c.sql); (norm != nil) != c.served {
				t.Errorf("%q: served by the probe %v, want %v", c.sql, norm != nil, c.served)
			}
		}
	}
}

// TestShapeStormTotalsNeverRunBackwards drives three times the table's
// capacity in new shapes through one session, sampling the digest.*
// totals after every statement: they must never decrease, and must end at
// the number of statements executed, because an evicted shape's counters
// move to the "(evicted)" accumulator instead of vanishing. A hot shape
// interleaved with the storm is always among its shard's most recently
// used, so the LRU must never evict it.
func TestShapeStormTotalsNeverRunBackwards(t *testing.T) {
	k := newKernel(t, 2, 4)
	const capacity = 64
	k.planCache = plancache.New(capacity) // before the first statement
	s := k.NewSession()
	seed(t, s, 4)
	last := k.planCache.DigestMetrics()
	executed, uid := last["calls"], sqltypes.NewInt(1)
	run := func(sql string) {
		t.Helper()
		mustQuery(t, s, sql, uid)
		executed++
		m := k.planCache.DigestMetrics()
		for _, name := range []string{"calls", "errors", "rows", "evictions"} {
			if m[name] < last[name] {
				t.Fatalf("digest.%s ran backwards after %q: %d -> %d", name, sql, last[name], m[name])
			}
		}
		last = m
	}
	const hot = "SELECT name AS hot FROM t_user WHERE uid = ?"
	storm := func(i int) string { return fmt.Sprintf("SELECT name AS a%03d FROM t_user WHERE uid = ?", i) }
	for i := 0; i < 3*capacity; i++ {
		run(storm(i))
		run(hot)
	}
	if last["calls"] != executed || last["shapes"] > capacity || last["evictions"] == 0 {
		t.Fatalf("after %d statements: %v", executed, last)
	}
	if d := mustDigest(t, k, hot); d.Calls != 3*capacity {
		t.Fatalf("the hot shape was evicted along the way: %+v", d)
	}
	if _, ok := findDigest(t, k, storm(0)); ok {
		t.Fatal("the storm's first shape outlived three capacities of newer ones")
	}
	shapes, evicted := k.planCache.Digests()
	sum := evicted.Calls
	for _, d := range shapes {
		sum += d.Calls
	}
	if evicted.ID != plancache.EvictedID || evicted.Calls == 0 || sum != executed {
		t.Fatalf("live rows + evicted = %d, executed %d (evicted %+v)", sum, executed, evicted)
	}
	// An evicted shape's next sight starts from zero; the rest stays in
	// the accumulator.
	run(storm(0))
	if d := mustDigest(t, k, storm(0)); d.Calls != 1 {
		t.Fatalf("evicted shape came back as %+v", d)
	}
	if last["calls"] != executed {
		t.Fatalf("calls %d, executed %d", last["calls"], executed)
	}
}

func TestResetForgetsDigestsAndPlans(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	seed(t, s, 4)
	const q = "SELECT name FROM t_user WHERE uid = ?"
	uid := sqltypes.NewInt(1)
	for i := 0; i < nodeKeepSights; i++ {
		mustQuery(t, s, q, uid)
	}

	k.PlanCache().Reset()
	if shapes, evicted := k.planCache.Digests(); len(shapes) != 0 || evicted.Calls != 0 {
		t.Fatalf("digests survived Reset: %v %+v", shapes, evicted)
	}
	if m := k.planCache.DigestMetrics(); m["shapes"] != 0 || m["calls"] != 0 {
		t.Fatalf("digest metrics after Reset: %v", m)
	}
	if n := parses(func() { mustQuery(t, s, q, uid) }); n != 1 {
		t.Fatalf("first execution after Reset parsed %d times, want 1 (the recompile)", n)
	}
	if d := mustDigest(t, k, q); d.Calls != 1 {
		t.Fatalf("digest after Reset: %+v", d)
	}
}

// TestShapeStormConcurrentWithSnapshotsAndEpochBumps is for the race
// detector: new shapes from 8 sessions (evicting all the while), digest
// snapshots and rule publications at once. The totals a single reader
// samples must still never decrease.
func TestShapeStormConcurrentWithSnapshotsAndEpochBumps(t *testing.T) {
	k := newKernel(t, 2, 4)
	k.planCache = plancache.New(64)
	seed(t, k.NewSession(), 4)
	const workers, perWorker = 8, 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, s *Session) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				for _, sql := range []string{
					fmt.Sprintf("SELECT name AS w%d_%03d FROM t_user WHERE uid = ?", w, i),
					"SELECT name AS shared FROM t_user WHERE uid = ?",
				} {
					rs, err := s.Query(sql, sqltypes.NewInt(int64(1+i%4)))
					if err != nil {
						t.Error(err)
						return
					}
					if rows, err := resource.ReadAll(rs); err != nil || len(rows) != 1 {
						t.Errorf("%q: rows %v err %v", sql, rows, err)
						return
					}
				}
			}
		}(w, k.NewSession())
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var lastCalls int64
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		k.Publish(nil)
		shapes, _ := k.planCache.Digests()
		if len(shapes) > 64 {
			t.Fatalf("%d live shapes in a table of 64", len(shapes))
		}
		calls := k.planCache.DigestMetrics()["calls"]
		if calls < lastCalls {
			t.Fatalf("digest.calls ran backwards: %d -> %d", lastCalls, calls)
		}
		lastCalls = calls
	}
	// A statement whose shape was evicted mid-flight observes into an
	// entry already folded, so the total may fall short, never overshoot.
	if max := int64(8 + workers*perWorker*2); lastCalls > max || lastCalls < max/2 {
		t.Fatalf("digest.calls %d after %d statements", lastCalls, max)
	}
}

// TestShapeAllocations bounds what one point select allocates end to end
// (Session.Execute + ReadAll) on a shape never seen before — normalize,
// entry, compile, execute — and on a cached one, which finds its shape by
// its text: 51 and 8, what each allocates now. A cached one allocates what
// it hands over — the unit's text, the QueryResult, the pooled
// connection's wrapper, the statement's Result and the node's row — and no
// dispatch scaffolding: it routes and rewrites into its session's results.
// Inside BEGIN it takes the held path, the transaction's pinned connection
// running a one-statement window, under the same ceiling.
func TestShapeAllocations(t *testing.T) {
	k := sbtestKernel(t, 2000)
	s := k.NewSession()
	id := sqltypes.NewInt(7)
	const runs = 200
	fresh := make([]string, 0, runs+1) // AllocsPerRun warms up with one extra call
	for i := 0; i <= runs; i++ {
		fresh = append(fresh, fmt.Sprintf("SELECT c AS a%05d FROM sbtest WHERE id = ?", i))
	}
	const cached = "SELECT c FROM sbtest WHERE id = ?"
	for i := 0; i < sights.Keep; i++ {
		drain(t, s, cached, id)
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() { drain(t, s, fresh[next], id); next++ }); n > 51 {
		t.Errorf("a never-seen shape allocates %.0f times, ceiling 51", n)
	} else {
		t.Logf("never-seen shape: %.0f allocs", n)
	}
	if n := testing.AllocsPerRun(runs, func() { drain(t, s, cached, id) }); n > 8 {
		t.Errorf("a cached shape allocates %.0f times, ceiling 8", n)
	} else {
		t.Logf("cached shape: %.0f allocs", n)
	}
	// The window's statement list is recycled through a sync.Pool, which
	// the race detector makes drop a random quarter of what it is given.
	held := 8.0
	if raceDetector() {
		held++
	}
	drain(t, s, "BEGIN")
	drain(t, s, cached, id)
	if n := testing.AllocsPerRun(runs, func() { drain(t, s, cached, id) }); n > held {
		t.Errorf("a cached shape inside BEGIN allocates %.0f times, ceiling %.0f", n, held)
	} else {
		t.Logf("cached shape inside BEGIN: %.0f allocs", n)
	}
	drain(t, s, "COMMIT")
}

// raceDetector reports whether the test binary was built with -race.
func raceDetector() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestPointSelectChargesItsShard: a point select whose result frees its
// connection at once still counts one query and one row in its shard's
// heat cell (SHOW SHARD HEAT) and one call and one row in its digest.
func TestPointSelectChargesItsShard(t *testing.T) {
	k := sbtestKernel(t, 100)
	s := k.NewSession()
	k.Workload().Reset()
	k.planCache.Reset()
	const n = 20
	for i := 0; i < n; i++ {
		if got := drain(t, s, "SELECT c FROM sbtest WHERE id = ?", sqltypes.NewInt(int64(1+i%4))); got != 1 {
			t.Fatalf("%d rows", got)
		}
	}
	var queries, rows int64
	for _, c := range k.Workload().Heat.Snapshot(digest.Now()) {
		queries += c.Queries
		rows += c.RowsRead
	}
	if queries != n || rows != n {
		t.Fatalf("heat counts %d queries and %d rows for %d point selects", queries, rows, n)
	}
	if m := k.planCache.DigestMetrics(); m["calls"] != n || m["rows"] != n {
		t.Fatalf("digests count %d calls and %d rows for %d point selects", m["calls"], m["rows"], n)
	}
}

// BenchmarkShapes is the benchmark's point select on one session, for
// profiling with the standard tooling (-benchmem, -cpuprofile): cold runs
// the cold_shapes statement — 16,384 aliases cycling through a table of
// 4,096, every one a miss — and cached runs point_select's one shape.
func BenchmarkShapes(b *testing.B) {
	const rows = 50000
	k := sbtestKernel(b, rows)
	s := k.NewSession()
	shapes := make([]string, 16384)
	for i := range shapes {
		shapes[i] = fmt.Sprintf("SELECT c AS a%05d FROM sbtest WHERE id = ?", i)
	}
	for _, bc := range []struct {
		name  string
		shape func(i int) string
	}{
		{"cold", func(i int) string { return shapes[i%len(shapes)] }},
		{"cached", func(int) string { return "SELECT c FROM sbtest WHERE id = ?" }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				drain(b, s, bc.shape(i), sqltypes.NewInt(1+rng.Int63n(rows)))
			}
		})
	}
}

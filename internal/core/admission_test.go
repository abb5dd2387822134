package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"shardingsphere/internal/plancache"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sights"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/transaction"
)

// The plan cache keeps what repeats: a shape's plan from its third sight,
// and a client text spelled otherwise than its key from its third sight,
// as a spelling. These tests pin both through Session.Execute.

// TestBytesPerOneShotShape: 4,096 aliases of the point select, each run
// once, leave their digest entries and no plan: about 500 B a shape.
// Keeping every plan from its first sight read 1,722 B.
func TestBytesPerOneShotShape(t *testing.T) {
	const shapes, bound = plancache.DefaultCapacity, 700
	k := sbtestKernel(t, 100)
	s := k.NewSession()
	texts := make([]string, shapes)
	for i := range texts {
		texts[i] = fmt.Sprintf("SELECT c AS a%05d FROM sbtest WHERE id = ?", i)
	}
	id := sqltypes.NewInt(7)
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second empties the pools' victim caches
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for _, q := range texts {
		drain(t, s, q, id)
	}
	per := float64(int64(heap())-int64(before)) / shapes
	runtime.KeepAlive(texts)
	runtime.KeepAlive(s)
	if per > bound {
		t.Fatalf("a one-shot shape retains %.0f B, bound %d", per, bound)
	}
	t.Logf("%.0f B per one-shot shape", per)
	if st := k.planCache.Stats(); st.Size == 0 || st.Spellings != 0 {
		t.Fatalf("stats %+v: want the shapes' entries and no spelling", st)
	}
}

// TestShapeProbedFromThirdSight: a point select run three times keeps its
// plan, and its fourth execution is a probe hit that parses nothing, on
// the kernel or on the data node.
func TestShapeProbedFromThirdSight(t *testing.T) {
	k := sbtestKernel(t, 100)
	s := k.NewSession()
	const q = "SELECT c FROM sbtest WHERE id = ?"
	id := sqltypes.NewInt(7)
	for i := 1; i <= sights.Keep; i++ {
		if _, norm := k.planCache.Probe(q); norm != nil {
			t.Fatalf("the probe served %q before sight %d", q, i)
		}
		drain(t, s, q, id)
	}
	if _, norm := k.planCache.Probe(q); norm == nil || norm.Key != q {
		t.Fatalf("the probe does not serve %q after %d sights: %+v", q, sights.Keep, norm)
	}
	before := k.planCache.Stats()
	if n := parses(func() { drain(t, s, q, id) }); n != 0 {
		t.Fatalf("a probed execution parsed %d times", n)
	}
	if after := k.planCache.Stats(); after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("stats %+v -> %+v: want one hit", before, after)
	}
}

// TestSpellingRunsWithoutNormalize: a text that normalizes to another key
// (here its keywords are lower-case) is a spelling from its third sight:
// it runs under its shape's entry and plan, and allocates what a text
// spelled as the key allocates (TestShapeAllocations' 12) plus its bound
// argument slice, 13; normalizing it would add the normalized form, its
// slots and the key.
func TestSpellingRunsWithoutNormalize(t *testing.T) {
	k := sbtestKernel(t, 2000)
	s := k.NewSession()
	const spelled = "select c from sbtest where id = ?"
	id := sqltypes.NewInt(7)
	loaded := k.planCache.Stats()
	for i := 1; i <= sights.Keep; i++ {
		if _, norm := k.planCache.Probe(spelled); norm != nil {
			t.Fatalf("the spelling was served before sight %d", i)
		}
		drain(t, s, spelled, id)
	}
	e, norm := k.planCache.Probe(spelled)
	if norm == nil || norm.Key == spelled || e.Digest.Key != norm.Key {
		t.Fatalf("no spelling after %d sights: %+v", sights.Keep, norm)
	}
	if st := k.planCache.Stats(); st.Size != loaded.Size+1 || st.Spellings != 1 {
		t.Fatalf("stats %+v -> %+v: want one more shape and its spelling", loaded, st)
	}
	calls := e.Digest.Snapshot().Calls
	n := testing.AllocsPerRun(200, func() { drain(t, s, spelled, id) })
	if got := e.Digest.Snapshot().Calls - calls; got != 201 {
		t.Fatalf("the shape's digest counted %d of 201 executions", got)
	}
	// The same shape spelled as its key, kept from its third sight.
	const keyed = "SELECT c FROM sbtest WHERE id = ?"
	for i := 0; i < sights.Keep; i++ {
		drain(t, s, keyed, id)
	}
	nKeyed := testing.AllocsPerRun(200, func() { drain(t, s, keyed, id) })
	if n > 13 || n > nKeyed+1 {
		t.Errorf("a kept spelling allocates %.0f times, its key-spelled twin %.0f: ceiling 13 and the twin's plus one", n, nKeyed)
	} else {
		t.Logf("kept spelling: %.0f allocs, key-spelled twin %.0f", n, nKeyed)
	}
}

// TestSpelledForUpdateBypassesInTransaction: a locking read spelled with a
// literal is kept as a spelling outside a transaction, and inside an XA
// transaction it still parses and compiles for its own execution.
func TestSpelledForUpdateBypassesInTransaction(t *testing.T) {
	k := newKernel(t, 2, 4)
	s := k.NewSession()
	seed(t, s, 4)
	const q = "SELECT name FROM t_user WHERE uid = 1 FOR UPDATE"
	for i := 0; i <= sights.Keep; i++ {
		mustQuery(t, s, q)
	}
	if _, norm := k.planCache.Probe(q); norm == nil || norm.Key == q || !norm.ForUpdate {
		t.Fatalf("%q is not a kept spelling: %+v", q, norm)
	}
	s.SetTransactionType(transaction.XA)
	mustExec(t, s, "BEGIN")
	before := k.planCache.Stats()
	for i := 0; i < 2; i++ {
		if n := parses(func() { mustQuery(t, s, q) }); n == 0 {
			t.Fatalf("execution %d: FOR UPDATE inside XA must bypass the plan cache", i)
		}
	}
	if after := k.planCache.Stats(); after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("the bypass touched the plan: %+v -> %+v", before, after)
	}
	mustExec(t, s, "COMMIT")
}

// FuzzSpelling: a DML text that runs past admission binds, through what
// the probe returns, exactly what normalizing it binds, under the same
// key; a text short of arguments fails both ways.
func FuzzSpelling(f *testing.F) {
	for _, seed := range []string{
		"SELECT c FROM sbtest WHERE id = ?",
		"SELECT SUM(k) FROM sbtest WHERE id BETWEEN ? AND ?",
		"UPDATE sbtest SET k = k + 1 WHERE id = ?",
		"INSERT INTO sbtest (id, k, c, pad) VALUES (?, ?, ?, ?)",
		"select name from t_user where uid = 3 for update",
		"SELECT v % 3, v % 5 FROM t ORDER BY v % 5, 1 LIMIT 2, ?",
		"DELETE FROM t WHERE id IN (1, -2.5, 'x''y', ?)",
	} {
		f.Add(seed, uint8(2))
	}
	f.Fuzz(func(t *testing.T, text string, nargs uint8) {
		want, ok := sqlparser.Normalize(text)
		if !ok {
			return
		}
		args := make([]sqltypes.Value, nargs%8)
		for i := range args {
			args[i] = sqltypes.NewInt(int64(100 + i))
		}
		c := plancache.New(0)
		for i := 0; i < sights.Keep; i++ {
			e := c.Lookup(want.Key)
			c.Plan(e, nil, func() (any, error) { return "plan", nil })
			c.Admit(text, want, e)
		}
		e, norm := c.Probe(text)
		if norm == nil {
			t.Fatalf("%q is not served after %d sights", text, sights.Keep)
		}
		if e.Digest.Key != want.Key || norm.Key != want.Key || norm.ForUpdate != want.ForUpdate {
			t.Fatalf("%q: served under %q (FOR UPDATE %v), normalizes to %q (%v)", text, e.Digest.Key, norm.ForUpdate, want.Key, want.ForUpdate)
		}
		got, gotErr := bindNormalized(text, norm, args)
		wantArgs, wantErr := want.BindArgs(args)
		if (gotErr != nil) != (wantErr != nil) || !slices.Equal(got, wantArgs) {
			t.Fatalf("%q with %d arguments binds %v (%v), normalizing binds %v (%v)", text, len(args), got, gotErr, wantArgs, wantErr)
		}
	})
}

// TestSpellingsUnderConcurrentEvictionAndEpochBumps is for the race
// detector: eight sessions run one shape under its key, a lower-case
// spelling and a literal spelling each, beside a storm of new shapes that
// evicts entries of a small table and beside rule publications. Every
// statement must still return its own row.
func TestSpellingsUnderConcurrentEvictionAndEpochBumps(t *testing.T) {
	k := newKernel(t, 2, 4)
	k.planCache = plancache.New(32)
	seed(t, k.NewSession(), 4)
	const workers, perWorker = 8, 120
	done, published := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(published)
		for {
			select {
			case <-done:
				return
			default:
				k.Publish(nil)
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, s *Session) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				uid := int64(1 + i%4)
				for _, c := range []struct {
					sql  string
					args []sqltypes.Value
				}{
					{"SELECT name FROM t_user WHERE uid = ?", []sqltypes.Value{sqltypes.NewInt(uid)}},
					{"select name from t_user where uid = ?", []sqltypes.Value{sqltypes.NewInt(uid)}},
					{fmt.Sprintf("SELECT name FROM t_user WHERE uid = %d", uid), nil},
					{fmt.Sprintf("SELECT name AS w%d_%03d FROM t_user WHERE uid = ?", w, i), []sqltypes.Value{sqltypes.NewInt(uid)}},
				} {
					rs, err := s.Query(c.sql, c.args...)
					if err != nil {
						t.Error(err)
						return
					}
					if rows, err := resource.ReadAll(rs); err != nil || len(rows) != 1 || rows[0][0].S != fmt.Sprintf("user%d", uid) {
						t.Errorf("%q: rows %v err %v", c.sql, rows, err)
						return
					}
				}
			}
		}(w, k.NewSession())
	}
	wg.Wait()
	close(done)
	<-published
}

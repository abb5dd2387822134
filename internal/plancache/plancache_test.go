package plancache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sights"
	"shardingsphere/internal/sqlparser"
)

// rules is the snapshot a test's plans are stamped with, unless the test
// publishes another.
var rules = sharding.NewRuleSet()

// plan is what a statement does with the cache: one lookup, then the
// entry's plan under rules.
func plan(c *Cache, key string, build func() (any, error)) (any, error) {
	return c.Plan(c.Lookup(key), rules, build)
}

// seen runs key's first sights.Keep-1 executions, which compile for
// themselves: the next one keeps the plan it builds.
func seen(c *Cache, key string) *Entry {
	e := c.Lookup(key)
	for i := 1; i < sights.Keep; i++ {
		c.Plan(e, rules, func() (any, error) { return "one-shot", nil })
	}
	return e
}

// shardKeys returns n distinct keys that all hash to shard 0.
func shardKeys(n int) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		if k := fmt.Sprintf("k%d", i); fnv1a(k)&(NumShards-1) == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestGetPutBasics(t *testing.T) {
	c := New(64)
	if _, ok := c.Get("k"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("k", 42)
	v, ok := c.Get("k")
	if !ok || v.(int) != 42 {
		t.Fatalf("got %v %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLRUEvictionBound(t *testing.T) {
	// Capacity 16 → one entry per shard; inserting many keys must keep
	// Len bounded at NumShards and count evictions.
	c := New(16)
	for i := 0; i < 1000; i++ {
		c.Put(fmt.Sprintf("key-%d", i), i)
	}
	if got := c.Stats().Size; got > NumShards {
		t.Fatalf("cache grew past bound: %d entries", got)
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no evictions counted")
	}
}

func TestLRUOrderWithinShard(t *testing.T) {
	// Force all keys through one shard by brute-forcing keys that collide.
	c := New(NumShards * 2) // two entries per shard
	keys := shardKeys(3)
	c.Put(keys[0], 0)
	c.Put(keys[1], 1)
	c.Get(keys[0]) // touch: keys[1] is now LRU
	c.Put(keys[2], 2)
	if _, ok := c.Get(keys[1]); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("recently-used entry was evicted")
	}
}

// TestEpochInvalidation: a kept plan is current only for a caller holding
// the snapshot it was stamped with. A caller holding a newer one misses
// once, and keeps its own plan in the same entry.
func TestEpochInvalidation(t *testing.T) {
	c := New(64)
	e := seen(c, "k")
	plan(c, "k", func() (any, error) { return "old", nil })
	newer := rules.Clone()
	warm := c.Stats()
	for i := 0; i < 2; i++ {
		if v, _ := c.Plan(e, newer, func() (any, error) { return "new", nil }); v.(string) != "new" {
			t.Fatalf("execution %d under a newer snapshot got the %s plan", i, v)
		}
	}
	if st := c.Stats(); st.Misses-warm.Misses != 1 || st.Hits-warm.Hits != 1 || st.Size != 1 {
		t.Fatalf("stats %+v -> %+v: want one miss, then one hit, in one entry", warm, st)
	}
	if v, ok := c.Get("k"); !ok || v.(string) != "new" {
		t.Fatalf("kept plan %v %v", v, ok)
	}
}

func TestPlanBuiltOnceUnderConcurrentFirstSight(t *testing.T) {
	c := New(64)
	seen(c, "hot")
	var builds atomic.Int32
	release := make(chan struct{})
	const workers = 16
	var wg sync.WaitGroup
	results := make([]any, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := plan(c, "hot", func() (any, error) {
				builds.Add(1)
				<-release
				return "plan", nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Let the goroutines pile up on the entry's build lock, then release.
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1", n)
	}
	for i, v := range results {
		if v.(string) != "plan" {
			t.Fatalf("worker %d got %v", i, v)
		}
	}
}

func TestPlanErrorNotCached(t *testing.T) {
	c := New(64)
	boom := errors.New("boom")
	if _, err := plan(c, "k", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("error result was cached")
	}
	v, err := plan(c, "k", func() (any, error) { return 7, nil })
	if err != nil || v.(int) != 7 {
		t.Fatalf("retry after error failed: %v %v", v, err)
	}
}

func TestPlanStampedWithPreBuildEpoch(t *testing.T) {
	// A rule change that lands while a plan is being built must leave that
	// plan stale: it is stamped with the snapshot its caller held.
	c := New(64)
	seen(c, "k")
	live := rules
	_, err := plan(c, "k", func() (any, error) {
		live = rules.Clone() // a publication races the build in real life
		return "stale-plan", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Plan(c.Lookup("k"), live, func() (any, error) { return "fresh-plan", nil }); v.(string) != "fresh-plan" {
		t.Fatal("plan built before a publication was served after it")
	}
}

func TestConcurrentAccessParallel(t *testing.T) {
	c := New(256)
	var live atomic.Pointer[sharding.RuleSet]
	live.Store(rules)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("shape-%d", i%97)
				stamp := live.Load()
				v, err := c.Plan(c.Lookup(key), stamp, func() (any, error) { return [2]any{key, stamp}, nil })
				if err != nil {
					t.Error(err)
					return
				}
				if v != [2]any{key, stamp} {
					t.Errorf("%s under %p got the plan %v", key, stamp, v)
					return
				}
				if i%500 == 0 && g == 0 {
					live.Store(live.Load().Clone())
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Stats().Size; n > 256 {
		t.Fatalf("cache overgrew: %d", n)
	}
}

func TestMetricsMap(t *testing.T) {
	c := New(32)
	e := seen(c, "a")
	c.Plan(e, rules, func() (any, error) { return 1, nil })
	c.Plan(e, rules, func() (any, error) { return 2, nil })
	c.Plan(e, rules.Clone(), func() (any, error) { return 3, nil })
	m := c.Metrics()
	if m["hits"] != 1 || m["misses"] != sights.Keep+1 || m["size"] != 1 {
		t.Fatalf("metrics %v", m)
	}
	if m["capacity"] != 32 {
		t.Fatalf("capacity %d", m["capacity"])
	}
	// hits, misses, evictions, size, spellings, capacity, hit_ratio_milli
	// and one eviction count per shard.
	if len(m) != 7+NumShards {
		t.Fatalf("%d rows: %v", len(m), m)
	}
}

// TestDigestOutlivesPlan: a newer snapshot finds the plan stale and the
// entry — the same one, with its counters — in place; hits and misses keep
// meaning "a current plan was found / one had to be compiled".
func TestDigestOutlivesPlan(t *testing.T) {
	c := New(64)
	builds := 0
	build := func() (any, error) { builds++; return builds, nil }
	e := seen(c, "q")
	if e.Digest.Key != "q" || len(e.Digest.ID) != 16 {
		t.Fatalf("entry identity: %+v", e.Digest.Snapshot())
	}
	warm := c.Stats()
	c.Plan(e, rules, build)
	e.Digest.Observe(time.Millisecond, 1, 0, false)
	newer := rules.Clone()
	again := c.Lookup("q")
	if again != e {
		t.Fatal("same shape resolved to a different entry under a newer snapshot")
	}
	if v, _ := c.Plan(again, newer, build); v.(int) != 2 {
		t.Fatalf("stale plan served: build %v", v)
	}
	c.Plan(again, newer, build)
	if st := c.Stats(); builds != 2 || st.Hits-warm.Hits != 1 || st.Misses-warm.Misses != 2 {
		t.Fatalf("builds %d stats %+v", builds, st)
	}
	if m := c.DigestMetrics(); m["calls"] != 1 || m["shapes"] != 1 {
		t.Fatalf("digest metrics: %v", m)
	}
}

// TestEvictionFoldsIntoEvicted: the victim is the shard's least recently
// used shape, its counters move to the evicted accumulator (so the totals
// do not drop), and its next sight starts from zero.
func TestEvictionFoldsIntoEvicted(t *testing.T) {
	c := New(NumShards * 2) // two entries per shard
	keys := shardKeys(3)
	for i, k := range keys[:2] {
		e := c.Lookup(k)
		for n := 0; n <= i; n++ {
			e.Digest.Observe(time.Millisecond, 1, 0, n == 1)
		}
		e.Digest.AddRows(int64(10*(i+1)), 0)
	}
	c.Lookup(keys[0])                                          // keys[1] is now least recently used
	c.Lookup(keys[2]).Digest.Observe(time.Second, 4, 0, false) // evicts it
	shapes, evicted := c.Digests()
	if len(shapes) != 2 {
		t.Fatalf("live shapes: %+v", shapes)
	}
	for _, s := range shapes {
		if s.Key == keys[1] {
			t.Fatalf("least recently used shape survived: %+v", s)
		}
	}
	if evicted.ID != EvictedID || evicted.Calls != 2 || evicted.Errors != 1 || evicted.Rows != 20 || evicted.P99 == 0 {
		t.Fatalf("evicted accumulator: %+v", evicted)
	}
	if m := c.DigestMetrics(); m["calls"] != 4 || m["errors"] != 1 || m["rows"] != 30 || m["shapes"] != 2 || m["evictions"] != 1 {
		t.Fatalf("digest metrics: %v", m)
	}
	// keys[1] comes back as a new shape (evicting keys[0]).
	if calls, _, _ := c.Lookup(keys[1]).Digest.Totals(); calls != 0 {
		t.Fatalf("evicted shape came back with %d calls", calls)
	}
	if _, evicted = c.Digests(); evicted.Calls != 3 {
		t.Fatalf("evicted accumulator after a second eviction: %+v", evicted)
	}
}

func TestResetForgetsShapesPlansAndEvicted(t *testing.T) {
	c := New(NumShards)
	keys := shardKeys(2)
	for _, k := range keys {
		c.Put(k, k)
		c.Lookup(k).Digest.Observe(time.Millisecond, 1, 0, false)
	}
	old := c.Lookup(keys[1])
	c.Reset()
	shapes, evicted := c.Digests()
	if n := c.Stats().Size; len(shapes) != 0 || evicted.Calls != 0 || n != 0 {
		t.Fatalf("after Reset: shapes %v evicted %+v len %d", shapes, evicted, n)
	}
	if m := c.DigestMetrics(); m["calls"] != 0 || m["shapes"] != 0 {
		t.Fatalf("digest metrics after Reset: %v", m)
	}
	if _, ok := c.Get(keys[1]); ok {
		t.Fatal("plan survived Reset")
	}
	if c.Lookup(keys[1]) == old {
		t.Fatal("Reset did not replace the entry")
	}
}

// TestPlanKeptFromThirdSight: a shape's first sights.Keep-1 misses compile
// for their own execution and store nothing; the next keeps its plan, and
// a stale plan is rebuilt and kept at once.
func TestPlanKeptFromThirdSight(t *testing.T) {
	c := New(64)
	builds := 0
	build := func() (any, error) { builds++; return builds, nil }
	for i := 1; i < sights.Keep; i++ {
		if v, _ := plan(c, "q", build); v.(int) != i {
			t.Fatalf("sight %d ran build %v", i, v)
		}
		if _, ok := c.Get("q"); ok {
			t.Fatalf("sight %d kept its plan", i)
		}
	}
	plan(c, "q", build)
	if v, ok := c.Get("q"); !ok || v.(int) != sights.Keep {
		t.Fatalf("sight %d did not keep its plan: %v %v", sights.Keep, v, ok)
	}
	c.Plan(c.Lookup("q"), rules.Clone(), build)
	if v, ok := c.Get("q"); !ok || v.(int) != sights.Keep+1 || builds != sights.Keep+1 {
		t.Fatalf("a stale plan was not rebuilt and kept: %v %v after %d builds", v, ok, builds)
	}
}

// TestProbeServesRepeatedTexts: a text spelled as its key is served once
// its shape keeps a plan; a text that normalizes to another key is kept as
// a spelling from its third admitted sight, shares the shape's entry and
// leaves no digest row; a one-shot text leaves neither.
func TestProbeServesRepeatedTexts(t *testing.T) {
	c := New(64)
	const key = "UPDATE t SET v = v + ? WHERE id = ?"
	const text = "update t set v = v + 1 where id = ?"
	self := &sqlparser.Normalized{Key: key, Args: []sqlparser.ArgSlot{{Arg: 0}, {Arg: 1}}}
	spelled := &sqlparser.Normalized{Key: key, Args: []sqlparser.ArgSlot{{Arg: -1}, {Arg: 0}}}
	e := c.Lookup(key)
	for i := 1; i <= sights.Keep; i++ {
		if got, _ := c.Probe(key); got != nil {
			t.Fatalf("the key was served before its plan was kept (sight %d)", i)
		}
		if got, _ := c.Probe(text); got != nil {
			t.Fatalf("the spelling was served before sight %d", i)
		}
		plan(c, key, func() (any, error) { return "plan", nil })
		c.Admit(key, self, e)
		c.Admit(text, spelled, e)
	}
	if got, norm := c.Probe(key); got != e || norm != self {
		t.Fatalf("the key is not served by its own normal form: %p %v", got, norm)
	}
	got, norm := c.Probe(text)
	if got != e || norm.Key != key || len(norm.Args) != 2 || norm.Args[0].Arg != -1 {
		t.Fatalf("the spelling is not served through its shape: %p %+v", got, norm)
	}
	if st := c.Stats(); st.Size != 1 || st.Spellings != 1 {
		t.Fatalf("stats %+v: want one shape and one spelling", st)
	}
	if shapes, _ := c.Digests(); len(shapes) != 1 {
		t.Fatalf("digest rows %+v: the spelling has none", shapes)
	}
	for i := 0; i < 10; i++ {
		c.Admit(fmt.Sprintf("update t set v = v + %d where id = ?", i+2), spelled, e)
	}
	if st := c.Stats(); st.Spellings != 1 || c.sights.Len() != 10 {
		t.Fatalf("one-shot texts: %d spellings, %d counts", st.Spellings, c.sights.Len())
	}
	c.Reset()
	if got, _ := c.Probe(text); got != nil || c.sights.Len() != 0 {
		t.Fatal("the spelling or the sights survived Reset")
	}
}

// TestSpellingsShareTheLRU: spellings count against the shard's capacity
// beside shapes and leave by the same LRU; a spelling whose shape was
// evicted brings the shape back on its next probe, as a new entry.
func TestSpellingsShareTheLRU(t *testing.T) {
	c := New(NumShards * 2) // two entries per shard
	keys := shardKeys(3)
	e := c.Lookup(keys[0])
	norm := &sqlparser.Normalized{Key: keys[0]}
	for i := 0; i < sights.Keep; i++ {
		c.Admit(keys[1], norm, e) // keys[1] is a spelling of keys[0]
	}
	if st := c.Stats(); st.Size != 1 || st.Spellings != 1 {
		t.Fatalf("stats %+v", st)
	}
	c.Lookup(keys[2]) // evicts keys[0], the least recently used
	if st := c.Stats(); st.Size != 1 || st.Spellings != 1 || st.Evictions != 1 {
		t.Fatalf("stats %+v: want the shape evicted", st)
	}
	got, _ := c.Probe(keys[1])
	if got == nil || got == e || got.Digest.Key != keys[0] {
		t.Fatalf("the spelling did not bring its shape back: %p", got)
	}
	if st := c.Stats(); st.Size+st.Spellings != 2 || st.Evictions != 2 {
		t.Fatalf("stats %+v: want two entries in the shard", st)
	}
}

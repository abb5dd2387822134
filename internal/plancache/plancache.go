// Package plancache is the kernel's one shape table: a fixed-shard LRU
// keyed by normalized SQL shape, shared by every session of a kernel. An
// entry holds what the kernel remembers about a shape — its statement
// digest counters, from its first sight, and its compiled plan, from its
// sights.Keep-th. Beside the shapes the same LRU keeps spellings: client
// texts that normalize to another key, from their sights.Keep-th sight,
// so a repeated text finds its shape without being lexed. Shards bound
// lock contention under concurrent OLTP load, a per-entry build lock
// keeps a hot shape from being compiled by every waiting session at once,
// and a plan stamped with the rule snapshot it compiled against is current
// only for callers holding that snapshot, so a rule publication makes every
// plan stale at once; the counters outlive that, and leave only by eviction
// (folded into the "(evicted)" accumulator) or Reset.
package plancache

import (
	"container/list"
	"strconv"
	"sync"
	"sync/atomic"

	"shardingsphere/internal/digest"
	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sights"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/telemetry"
)

// NumShards is the fixed shard count. Sixteen keeps per-shard mutexes
// uncontended at proxy-level concurrency while the power-of-two mask makes
// shard selection one AND instruction.
const NumShards = 16

// DefaultCapacity bounds the cache, shapes and spellings together, when
// the caller passes 0.
const DefaultCapacity = 4096

// EvictedID names the accumulator row of shapes that left by eviction.
const EvictedID = "(evicted)"

// Stats is a snapshot of the cache counters; Metrics flattens it for
// the kernel's metrics snapshot, and the benchmark's layer walk reads it.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Size      int // shapes
	Spellings int
	Capacity  int // shapes and spellings
	// ShardEvictions breaks Evictions down per LRU shard; a skewed
	// distribution means hot shapes hash-collide into one shard.
	ShardEvictions [NumShards]uint64
}

// HitRatio returns hits/(hits+misses), or 0 before any lookup.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is the sharded LRU. The zero value is not usable; call New.
type Cache struct {
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64

	capacity int // total, spread evenly over shards
	shards   [NumShards]shard
	// sights counts the texts that normalize to another key until they
	// are kept as spellings.
	sights *sights.Record
}

type shard struct {
	mu        sync.Mutex
	entries   map[string]*Entry    // shapes, by key
	spellings map[string]*spelling // other texts, by text
	lru       list.List            // both; front = most recently used
	// evicted accumulates the counters of every shape this shard evicted.
	// A victim leaves entries and is folded in under one hold of mu, so a
	// reader that takes the entries and evicted under one hold finds each
	// count in exactly one place.
	evicted   digest.Entry
	evictions atomic.Uint64
}

// Entry is one remembered statement shape.
type Entry struct {
	// Digest is the shape's statement digest: key, id and the counters
	// every execution of the shape feeds, whether or not it used the plan.
	// A statement keeps feeding the entry it looked up; what it adds after
	// the entry was evicted (it ran, or streamed rows, while a shard's worth
	// of newer shapes arrived) is in no row and no total.
	Digest digest.Entry

	// sights counts the executions that found no current plan; the plan
	// is kept from the sights.Keep-th on.
	sights atomic.Uint32
	// build serializes compilation, so concurrent sights of a shape that
	// keep its plan compile it once.
	build sync.Mutex
	plan  atomic.Pointer[stamped]
	// norm is the key's own normal form, once a text spelled as the key
	// ran with the plan kept: Probe serves that text by it. Guarded by the
	// shard's mu, as is elem.
	norm *sqlparser.Normalized
	elem *list.Element
}

// spelling is a kept client text that normalizes to another key: a
// literal lifted (k + 1) or other spacing (SUM(k)). It has no counters of
// its own; its executions run and count under its shape.
type spelling struct {
	text string
	norm *sqlparser.Normalized
	elem *list.Element
}

// stamped is a compiled plan and the rule snapshot it was compiled
// against, nil for a plan stored by Put.
type stamped struct {
	val   any
	stamp *sharding.RuleSet
}

// New builds a cache holding up to capacity shapes (DefaultCapacity when
// capacity is 0; capacity is rounded up so every shard holds at least one).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	c := &Cache{capacity: capacity, sights: sights.New()}
	for i := range c.shards {
		c.shards[i].entries = map[string]*Entry{}
		c.shards[i].spellings = map[string]*spelling{}
	}
	return c
}

func (c *Cache) perShard() int {
	n := c.capacity / NumShards
	if n < 1 {
		n = 1
	}
	return n
}

// fnv1a hashes the key for shard selection.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (c *Cache) shard(key string) *shard {
	return &c.shards[fnv1a(key)&(NumShards-1)]
}

// Lookup returns the shape's entry, most recently used from now on. On
// first sight it inserts the entry, evicting the shard's least recently
// used entries when the shard is full. It is the keyed lookup of every
// statement the text probe (Probe) does not serve.
func (c *Cache) Lookup(key string) *Entry {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		s.lru.MoveToFront(e.elem)
		return e
	}
	e := &Entry{}
	e.Digest.Key, e.Digest.ID = key, telemetry.DigestID(key)
	e.elem = s.lru.PushFront(e)
	s.entries[key] = e
	c.evict(s)
	return e
}

// evict drops the shard's least recently used entries until it fits. A
// shape's counters are folded into the evicted accumulator; a spelling
// has none. The caller holds s.mu.
func (c *Cache) evict(s *shard) {
	for s.lru.Len() > c.perShard() {
		last := s.lru.Back()
		s.lru.Remove(last)
		switch victim := last.Value.(type) {
		case *Entry:
			delete(s.entries, victim.Digest.Key)
			s.evicted.Fold(&victim.Digest)
		case *spelling:
			delete(s.spellings, victim.text)
		}
		c.evictions.Add(1)
		s.evictions.Add(1)
	}
}

// Plan returns e's compiled plan if it is stamped with stamp, the caller's
// rule snapshot, and otherwise builds one with build(), which compiles
// against stamp. The shape's first sights.Keep-1 builds serve their own
// execution only; from the sights.Keep-th on the plan is kept with its
// stamp, and concurrent callers holding the snapshot share one build: the
// others wait on the entry's lock and find the plan there. A build error
// is returned to its caller and nothing is stored, so the next caller
// builds again.
func (c *Cache) Plan(e *Entry, stamp *sharding.RuleSet, build func() (any, error)) (any, error) {
	if p := e.plan.Load(); p != nil && p.stamp == stamp {
		c.hits.Add(1)
		return p.val, nil
	}
	c.misses.Add(1)
	if e.sights.Load() < sights.Keep-1 && e.sights.Add(1) < sights.Keep {
		return build()
	}
	e.build.Lock()
	defer e.build.Unlock()
	if p := e.plan.Load(); p != nil && p.stamp == stamp {
		return p.val, nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	e.plan.Store(&stamped{val: v, stamp: stamp})
	return v, nil
}

// Get returns the plan kept for key, whatever it was compiled against,
// counting the hit or miss.
func (c *Cache) Get(key string) (any, bool) {
	s := c.shard(key)
	s.mu.Lock()
	e := s.entries[key]
	if e != nil {
		s.lru.MoveToFront(e.elem)
	}
	s.mu.Unlock()
	if e != nil {
		if p := e.plan.Load(); p != nil {
			c.hits.Add(1)
			return p.val, true
		}
	}
	c.misses.Add(1)
	return nil, false
}

// Probe finds a kept text without lexing it: a text spelled as its
// shape's key, once the shape keeps a plan, or a spelling. It returns the
// shape's entry, found as Lookup finds it (a spelling whose shape was
// evicted inserts the shape again), and the normalized form the text
// binds through; nils for any other text. It counts nothing.
func (c *Cache) Probe(text string) (*Entry, *sqlparser.Normalized) {
	s := c.shard(text)
	s.mu.Lock()
	if e := s.entries[text]; e != nil && e.norm != nil {
		s.lru.MoveToFront(e.elem)
		norm := e.norm
		s.mu.Unlock()
		return e, norm
	}
	sp := s.spellings[text]
	if sp != nil {
		s.lru.MoveToFront(sp.elem)
	}
	s.mu.Unlock()
	if sp == nil {
		return nil, nil
	}
	return c.Lookup(sp.norm.Key), sp.norm
}

// Admit records that text, normalized to norm, ran under its shape's
// entry e with the plan, so Probe serves the text from its next execution
// once it repeats. A text spelled as its key is served once e keeps a
// plan. Any other text counts a sight, and from its sights.Keep-th is kept
// as a spelling; a one-shot text leaves only its count.
func (c *Cache) Admit(text string, norm *sqlparser.Normalized, e *Entry) {
	if text == norm.Key {
		if e.plan.Load() == nil {
			return
		}
		s := c.shard(text)
		s.mu.Lock()
		if s.entries[text] == e {
			e.norm = norm
		}
		s.mu.Unlock()
		return
	}
	if !c.sights.See(text) {
		return
	}
	// The spelling shares its shape's key string instead of holding a copy.
	sp := &spelling{text: text, norm: &sqlparser.Normalized{Key: e.Digest.Key, Args: norm.Args, ForUpdate: norm.ForUpdate}}
	s := c.shard(text)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.spellings[text]; ok {
		return
	}
	sp.elem = s.lru.PushFront(sp)
	s.spellings[text] = sp
	c.evict(s)
}

// Put keeps a plan for key with no stamp, for Get to find (tests and
// warmers).
func (c *Cache) Put(key string, val any) {
	c.Lookup(key).plan.Store(&stamped{val: val})
}

// Reset forgets every shape, spelling and sight, and the evicted
// accumulator (RESET DIGESTS). The plans go with the counters — they live
// in the same entries — so each shape is admitted again from its sights.
func (c *Cache) Reset() {
	c.sights.Reset()
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.entries = map[string]*Entry{}
		s.spellings = map[string]*spelling{}
		s.lru.Init()
		s.evicted = digest.Entry{}
		s.mu.Unlock()
	}
}

// Digests copies every live shape's digest out for rendering, and the
// sum of the evicted ones as one more snapshot with ID EvictedID.
// Statements take the shard locks too, so only pointers are copied under
// them; the counters and percentiles are read after.
func (c *Cache) Digests() (shapes []digest.EntrySnapshot, evicted digest.EntrySnapshot) {
	var live []*Entry
	var sum digest.Entry
	sum.ID = EvictedID
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, e := range s.entries {
			live = append(live, e)
		}
		sum.Fold(&s.evicted)
		s.mu.Unlock()
	}
	shapes = make([]digest.EntrySnapshot, len(live))
	for i, e := range live {
		shapes[i] = e.Digest.Snapshot()
	}
	return shapes, sum.Snapshot()
}

// DigestMetrics is the digest.* metrics family: the statement counters
// summed over live and evicted shapes, so they only grow between resets.
// It reads the three counters of each entry under the shard lock (a few
// microseconds a shard): read after, an entry evicted in between could
// show a late observation that the next call, summing evicted, does not.
func (c *Cache) DigestMetrics() map[string]int64 {
	var calls, errs, rows, shapes int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		ec, ee, er := s.evicted.Totals()
		calls, errs, rows = calls+ec, errs+ee, rows+er
		for _, e := range s.entries {
			ec, ee, er = e.Digest.Totals()
			calls, errs, rows = calls+ec, errs+ee, rows+er
		}
		shapes += int64(len(s.entries))
		s.mu.Unlock()
	}
	return map[string]int64{
		"calls":     calls,
		"errors":    errs,
		"rows":      rows,
		"shapes":    shapes,
		"evictions": int64(c.evictions.Load()),
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Capacity:  c.perShard() * NumShards,
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Size += len(s.entries)
		st.Spellings += len(s.spellings)
		s.mu.Unlock()
		st.ShardEvictions[i] = s.evictions.Load()
	}
	return st
}

// Metrics returns the counters as a flat name→value map, which the
// kernel's metrics snapshot (SHOW METRICS, /metrics) reports under
// "plan_cache.". Per-shard evictions are "shard_evictions.<i>".
func (c *Cache) Metrics() map[string]int64 {
	st := c.Stats()
	m := map[string]int64{
		"hits":      int64(st.Hits),
		"misses":    int64(st.Misses),
		"evictions": int64(st.Evictions),
		"size":      int64(st.Size),
		"spellings": int64(st.Spellings),
		"capacity":  int64(st.Capacity),
		// Scaled by 1000: a snapshot carries integers only.
		"hit_ratio_milli": int64(st.HitRatio() * 1000),
	}
	for i, ev := range st.ShardEvictions {
		m["shard_evictions."+strconv.Itoa(i)] = int64(ev)
	}
	return m
}

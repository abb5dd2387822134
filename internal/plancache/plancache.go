// Package plancache is the kernel's one shape table: a fixed-shard LRU
// keyed by normalized SQL shape, shared by every session of a kernel. An
// entry holds what the kernel remembers about a shape — its statement
// digest counters and its compiled plan. Shards bound lock contention
// under concurrent OLTP load, a per-entry build lock keeps a hot shape
// from being compiled by every waiting session at once, and a version
// epoch invalidates every plan in O(1) when DDL or rule changes make
// cached routes stale; the counters outlive that, and leave only by
// eviction (folded into the "(evicted)" accumulator) or Reset.
package plancache

import (
	"container/list"
	"strconv"
	"sync"
	"sync/atomic"

	"shardingsphere/internal/digest"
	"shardingsphere/internal/telemetry"
)

// NumShards is the fixed shard count. Sixteen keeps per-shard mutexes
// uncontended at proxy-level concurrency while the power-of-two mask makes
// shard selection one AND instruction.
const NumShards = 16

// DefaultCapacity bounds the cache when the caller passes 0.
const DefaultCapacity = 4096

// EvictedID names the accumulator row of shapes that left by eviction.
const EvictedID = "(evicted)"

// Stats is a snapshot of the cache counters; Metrics flattens it for
// the kernel's metrics snapshot, and the benchmark's layer walk reads it.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Invalidations uint64 // epoch bumps (rule publications)
	Size          int
	Capacity      int
	Epoch         uint64
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
	epoch         atomic.Uint64
	hits          atomic.Uint64
	misses        atomic.Uint64
	evictions     atomic.Uint64
	invalidations atomic.Uint64

	capacity int // total, spread evenly over shards
	shards   [NumShards]shard
}

type shard struct {
	mu      sync.Mutex
	entries map[string]*Entry
	lru     list.List // front = most recently used
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

	// build serializes compilation, so concurrent first sights of a shape
	// compile it once.
	build sync.Mutex
	plan  atomic.Pointer[stamped]
	elem  *list.Element // guarded by the shard's mu
}

// stamped is a compiled plan and the epoch read before it was built, so
// an invalidation racing with the build marks the fresh plan stale.
type stamped struct {
	val   any
	epoch uint64
}

// New builds a cache holding up to capacity shapes (DefaultCapacity when
// capacity is 0; capacity is rounded up so every shard holds at least one).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	c := &Cache{capacity: capacity}
	for i := range c.shards {
		c.shards[i].entries = map[string]*Entry{}
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

// Epoch returns the current invalidation epoch.
func (c *Cache) Epoch() uint64 { return c.epoch.Load() }

// Invalidate bumps the epoch: every cached plan becomes stale at once and
// is recompiled on its shape's next execution. The entries, and with them
// the digest counters, stay. The kernel calls it on each rule publication
// (DDL, DistSQL rule changes, governor-pushed configuration updates).
func (c *Cache) Invalidate() {
	c.epoch.Add(1)
	c.invalidations.Add(1)
}

// Lookup returns the shape's entry, most recently used from now on. On
// first sight it inserts the entry, evicting the shard's least recently
// used shape when the shard is full. It is the keyed lookup of every
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
	for s.lru.Len() > c.perShard() {
		last := s.lru.Back()
		victim := last.Value.(*Entry)
		s.lru.Remove(last)
		delete(s.entries, victim.Digest.Key)
		s.evicted.Fold(&victim.Digest)
		c.evictions.Add(1)
		s.evictions.Add(1)
	}
	return e
}

// current returns e's plan if it was built under the live epoch, counting
// the hit or miss.
func (c *Cache) current(e *Entry) (any, bool) {
	if p := e.plan.Load(); p != nil && p.epoch == c.epoch.Load() {
		c.hits.Add(1)
		return p.val, true
	}
	c.misses.Add(1)
	return nil, false
}

// Plan returns e's compiled plan, building it with build() when it is
// missing or stale. Concurrent callers share one build: the others wait
// on the entry's lock and find the plan there. A build error is returned
// to its caller and nothing is stored, so the next caller builds again.
func (c *Cache) Plan(e *Entry, build func() (any, error)) (any, error) {
	if v, ok := c.current(e); ok {
		return v, nil
	}
	e.build.Lock()
	defer e.build.Unlock()
	epoch := c.epoch.Load()
	if p := e.plan.Load(); p != nil && p.epoch == epoch {
		return p.val, nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	e.plan.Store(&stamped{val: v, epoch: epoch})
	return v, nil
}

// Get returns the cached plan for key, if present and current.
func (c *Cache) Get(key string) (any, bool) {
	if _, v := c.Probe(key); v != nil {
		c.hits.Add(1)
		return v, true
	}
	c.misses.Add(1)
	return nil, false
}

// Probe returns key's entry and its plan when the shape is known and its
// plan current, else nils. It inserts nothing and counts nothing: a caller
// that uses the plan counts it with Hit.
func (c *Cache) Probe(key string) (*Entry, any) {
	s := c.shard(key)
	s.mu.Lock()
	e := s.entries[key]
	if e != nil {
		s.lru.MoveToFront(e.elem)
	}
	s.mu.Unlock()
	if e != nil {
		if p := e.plan.Load(); p != nil && p.epoch == c.epoch.Load() {
			return e, p.val
		}
	}
	return nil, nil
}

// Hit counts a plan that Probe found and its caller used.
func (c *Cache) Hit() { c.hits.Add(1) }

// Put stores a plan directly (tests and warmers).
func (c *Cache) Put(key string, val any) {
	epoch := c.epoch.Load()
	c.Lookup(key).plan.Store(&stamped{val: val, epoch: epoch})
}

// Reset forgets every shape and the evicted accumulator (RESET DIGESTS).
// The plans go with the counters — they live in the same entries — so
// each shape's next execution compiles it again.
func (c *Cache) Reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.entries = map[string]*Entry{}
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

// Len returns the number of remembered shapes across all shards.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].entries)
		c.shards[i].mu.Unlock()
	}
	return n
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Size:          c.Len(),
		Capacity:      c.perShard() * NumShards,
		Epoch:         c.epoch.Load(),
	}
	for i := range c.shards {
		st.ShardEvictions[i] = c.shards[i].evictions.Load()
	}
	return st
}

// Metrics returns the counters as a flat name→value map, which the
// kernel's metrics snapshot (SHOW METRICS, /metrics) reports under
// "plan_cache.". Per-shard evictions are "shard_evictions.<i>".
func (c *Cache) Metrics() map[string]int64 {
	st := c.Stats()
	m := map[string]int64{
		"hits":          int64(st.Hits),
		"misses":        int64(st.Misses),
		"evictions":     int64(st.Evictions),
		"invalidations": int64(st.Invalidations),
		"size":          int64(st.Size),
		"capacity":      int64(st.Capacity),
		"epoch":         int64(st.Epoch),
		// Scaled by 1000: a snapshot carries integers only.
		"hit_ratio_milli": int64(st.HitRatio() * 1000),
	}
	for i, ev := range st.ShardEvictions {
		m["shard_evictions."+strconv.Itoa(i)] = int64(ev)
	}
	return m
}

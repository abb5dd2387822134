// Package sights is the admission rule of both statement caches: the
// kernel's plan cache and a data node's statement cache keep what a
// statement text compiles to only from the text's Keep-th sight. Until
// then a text leaves a count under its 64-bit hash, never its AST or plan,
// so traffic that does not repeat (inlined literals, an XA verb's xid, a
// storm of aliases, a loader's one-shot INSERTs) costs a cache eight bytes
// a text. It is TinyLFU's doorkeeper (Einziger et al., ACM TOS 2017) with
// the window emptied when full instead of aged.
package sights

import (
	"hash/maphash"
	"sync"
)

// Keep is the sight from which a text is kept. Two are not enough with a
// window this wide: of a population of texts far larger than the window a
// steady share still recurs inside it by chance (DESIGN.md, "Admission:
// what the statement caches keep", has the measurement); a third sight
// squares that share.
const Keep = 3

// window bounds a Record. A full one is emptied by the next new text, so
// it is the number of other new texts that may arrive between the sights
// of a text for them to count together: a working set of repeating texts
// up to this size is always admitted.
const window = 8192

// Record counts the sights of texts not kept yet. It is safe for
// concurrent use.
//
// The counts live in one open-addressed table, grown by doubling to keep
// it at most half full, so to twice the window, 128 KB, at most: a slot is
// a text's hash with its low two bits replaced by the count, 0 an empty
// slot. Collisions probe linearly, and a kept text's slot is freed by
// shifting its cluster back, so no tombstone is left behind.
type Record struct {
	mu    sync.Mutex
	seed  maphash.Seed
	slots []uint64 // a power of two long
	n     int
}

const (
	minSlots  = 64
	countMask = 3 // a slot's count bits: 1 or 2 sights
)

// New returns an empty record.
func New() *Record { return &Record{seed: maphash.MakeSeed()} }

// See counts one sight of text and reports whether it is the Keep-th, the
// one from which the caller keeps the text; the text's count is dropped
// then, since the caller's cache holds it from now on.
func (r *Record) See(text string) bool {
	tag := maphash.String(r.seed, text) &^ countMask
	if tag == 0 {
		tag = countMask + 1 // 0 marks an empty slot
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.slots == nil {
		r.slots = make([]uint64, minSlots)
	}
	i := r.find(tag)
	if s := r.slots[i]; s != 0 {
		if s&countMask+1 < Keep {
			r.slots[i]++
			return false
		}
		r.free(i)
		return true
	}
	switch {
	case r.n >= window:
		clear(r.slots)
		r.n = 0
		i = r.find(tag)
	case 2*(r.n+1) > len(r.slots):
		old := r.slots
		r.slots = make([]uint64, 2*len(old))
		for _, s := range old {
			if s != 0 {
				r.slots[r.find(s&^countMask)] = s
			}
		}
		i = r.find(tag)
	}
	r.slots[i] = tag | 1
	r.n++
	return false
}

// home is the slot a tag probes from.
func (r *Record) home(tag uint64) int { return int(tag>>2) & (len(r.slots) - 1) }

// find returns tag's slot, or the empty slot where it belongs.
func (r *Record) find(tag uint64) int {
	i := r.home(tag)
	for r.slots[i] != 0 && r.slots[i]&^countMask != tag {
		i = (i + 1) & (len(r.slots) - 1)
	}
	return i
}

// free empties slot i and moves back each later slot of its cluster that
// the hole would cut off from its home slot.
func (r *Record) free(i int) {
	r.n--
	for j := i; ; {
		r.slots[i] = 0
		for {
			j = (j + 1) & (len(r.slots) - 1)
			if r.slots[j] == 0 {
				return
			}
			// The slot at j stays when its home lies cyclically in
			// (i, j]; otherwise it moves into the hole at i.
			h := r.home(r.slots[j])
			if (j > i && (h <= i || h > j)) || (j < i && h <= i && h > j) {
				break
			}
		}
		r.slots[i] = r.slots[j]
		i = j
	}
}

// Len returns the number of texts counted and not kept.
func (r *Record) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Reset forgets every count.
func (r *Record) Reset() {
	r.mu.Lock()
	clear(r.slots)
	r.n = 0
	r.mu.Unlock()
}

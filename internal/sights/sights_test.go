package sights

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestRecordMatchesAMap drives a record and a map of counts with the same
// texts — through every doubling of the table and past the window, so
// clusters form and kept texts free slots inside them — and checks every
// answer and the count of texts held.
func TestRecordMatchesAMap(t *testing.T) {
	r := New()
	model := map[string]int{}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 200000; step++ {
		text := fmt.Sprintf("SELECT %d", rng.Intn(3*window))
		n := model[text] + 1
		if n == 1 && len(model) >= window {
			clear(model)
		}
		keep := n >= Keep
		if keep {
			delete(model, text)
		} else {
			model[text] = n
		}
		if got := r.See(text); got != keep {
			t.Fatalf("step %d: %q kept %v, want %v", step, text, got, keep)
		}
		if r.Len() != len(model) || 2*r.n > len(r.slots) || len(r.slots) > 2*window {
			t.Fatalf("step %d: record holds %d texts in %d slots, want %d", step, r.Len(), len(r.slots), len(model))
		}
	}
}

// TestRecordFreesWithinClusters: tags that share a home slot form one
// cluster; keeping any of them leaves every other one findable.
func TestRecordFreesWithinClusters(t *testing.T) {
	for kept := 0; kept < 6; kept++ {
		const size = minSlots
		r := New()
		r.slots = make([]uint64, size)
		tags := make([]uint64, 6)
		for i := range tags {
			// Homes size-2, size-1 and 0 twice each: the cluster wraps.
			tags[i] = uint64((size-2+i/2)&(size-1))<<2 | uint64(i+1)<<32
		}
		for _, tag := range tags {
			r.slots[r.find(tag)] = tag | 1
			r.n++
		}
		r.free(r.find(tags[kept]))
		for i, tag := range tags {
			if found := r.slots[r.find(tag)] != 0; found != (i != kept) {
				t.Fatalf("kept tag %d: tag %d found %v", kept, i, found)
			}
		}
		if r.n != len(tags)-1 {
			t.Fatalf("kept tag %d: %d texts held", kept, r.n)
		}
	}
}

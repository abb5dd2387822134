// Package p plants one exported name of each kind the reachability check
// must tell apart.
package p

import "sync"

// Unused has no caller, and OnlyFromUnused only a dead one: both are
// reported.
func Unused() { OnlyFromUnused() }

// OnlyFromUnused is called by dead code alone.
func OnlyFromUnused() {}

// Countdown is reached only through an anonymous interface.
type Countdown struct{ n int }

// Remaining is called through interface{ Remaining() (int, bool) }.
func (c Countdown) Remaining() (int, bool) { return c.n, c.n > 0 }

// Pair's fields are set by a positional literal only.
type Pair struct{ Left, Right int }

// New returns the values the command inspects.
func New() (any, Pair) { return Countdown{n: 1}, Pair{1, 2} }

// Tally's n is written and never read: it is reported.
type Tally struct{ n int }

// Count bumps the tally.
func (t *Tally) Count() { t.n++ }

// Slot's colRef is set by key and read only through promotion.
type Slot struct{ colRef }

type colRef struct{ col string }

// Col reads the promoted column of a new slot.
func Col(col string) string { return Slot{colRef: colRef{col: col}}.col }

// Heat counts touches by cell, whose fields its map reads as a key.
type Heat struct{ m map[cell]int }

type cell struct{ table, shard string }

// Touch counts a touch of a new heat.
func Touch(table, shard string) int {
	h := Heat{m: map[cell]int{}}
	h.m[cell{table: table, shard: shard}]++
	return len(h.m)
}

// Options' verbose is read and never written: it is reported. Its level is
// set by key, its seen through its address, its mu by a pointer method
// and its Name by a decoder, as its tag says.
type Options struct {
	verbose bool
	level   int
	seen    int
	mu      sync.Mutex
	Name    string `json:"name"`
}

// NewOptions returns options at level 1.
func NewOptions() *Options { return &Options{level: 1} }

// Level reads every option.
func (o *Options) Level() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	mark(&o.seen)
	if o.verbose || o.Name != "" {
		return o.level + o.seen
	}
	return o.level
}

func mark(n *int) { *n++ }

// Package p plants one exported name of each kind the reachability check
// must tell apart.
package p

// Unused has no caller: the check reports it.
func Unused() {}

// Countdown is reached only through an anonymous interface.
type Countdown struct{ n int }

// Remaining is called through interface{ Remaining() (int, bool) }.
func (c Countdown) Remaining() (int, bool) { return c.n, c.n > 0 }

// Pair's fields are set by a positional literal only.
type Pair struct{ Left, Right int }

// New returns the values the command inspects.
func New() (any, Pair) { return Countdown{n: 1}, Pair{1, 2} }

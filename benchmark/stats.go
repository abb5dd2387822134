package main

import (
	"math/bits"
	"sort"
)

// median returns the middle of vs (mean of the two middles for an even
// count) without reordering the caller's slice; 0 for no values.
func median[T int64 | float64](vs []T) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]T(nil), vs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return float64(s[mid])
	}
	return (float64(s[mid-1]) + float64(s[mid])) / 2
}

// span is one traced call: the layer walk records one around every call
// into a product layer. Times are nanoseconds since the walk began; Parent
// is an index into the same slice, -1 for a transaction's root.
type span struct {
	Name   string `json:"name"`
	Txn    int    `json:"txn"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover (overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, covered), min(spans[k].End, s.End)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// latHist is a log-linear histogram of latencies in nanoseconds: 256
// buckets per power of two, so a bucket is at most 0.4% wide. It keeps
// the measurement's memory constant and small, which heap_mb needs: a
// list of samples would grow with the very throughput being measured.
type latHist struct {
	counts [histBuckets]uint32
	n      int
}

const (
	histSubBits = 8
	// Latencies up to 2^38 ns (4.6 minutes) have a bucket of their own;
	// anything longer lands in the last one.
	histBuckets = (38 - histSubBits + 1) << histSubBits
)

func (h *latHist) add(ns int64) {
	h.counts[histBucket(uint64(max(ns, 0)))]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// histBucket maps a value to its bucket; values below 2^(histSubBits+1)
// map to themselves.
func histBucket(v uint64) int {
	e := max(bits.Len64(v)-(histSubBits+1), 0)
	return min(e<<histSubBits+int(v>>uint(e)), histBuckets-1)
}

// histBounds returns bucket i's lowest value and its width.
func histBounds(i int) (lo, width float64) {
	if i < 1<<(histSubBits+1) {
		return float64(i), 1
	}
	e := i>>histSubBits - 1
	m := i&(1<<histSubBits-1) + 1<<histSubBits
	return float64(uint64(m) << uint(e)), float64(uint64(1) << uint(e))
}

// percentile returns the nearest-rank p-quantile, placed inside its
// bucket by the rank's position among the bucket's samples.
func (h *latHist) percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := min(max(int(p*float64(h.n)+0.999999), 1), h.n)
	seen := 0
	for i, c := range h.counts {
		if seen+int(c) >= rank {
			lo, width := histBounds(i)
			return lo + width*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += int(c)
	}
	return 0 // unreachable: the counts sum to n
}

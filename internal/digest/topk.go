package digest

import (
	"sort"
	"sync"
)

// topKCapacity is the space-saving sketch width: enough monitored
// counters to rank the true top handful of sharding-key values under
// realistic skew, small enough that the O(k) min-scan on a miss stays
// in-cache.
const topKCapacity = 128

// keyItem is one monitored sharding-key value. Count overestimates the
// true frequency by at most MaxError (the classic space-saving bound:
// the evicted counter's value is inherited, so true ≥ Count - MaxError).
type keyItem struct {
	Table, Column, Value string
	Count, MaxError      int64
}

// KeyReport is one hot key copied out for rendering.
type KeyReport struct {
	Table, Column, Value string
	Count, MaxError      int64
}

// TopK is a space-saving top-k sketch over routed sharding-key values.
// It is mutex-guarded rather than striped: hot-key tracking is opt-in
// (SET VARIABLE hotkey_tracking), so the always-on path never touches
// it, and the monitored set must be global for the error bound to hold.
type TopK struct {
	mu    sync.Mutex
	items map[string]*keyItem
	k     int
}

// NewTopK builds a sketch monitoring up to k values (0 uses the
// default width).
func NewTopK(k int) *TopK {
	if k <= 0 {
		k = topKCapacity
	}
	return &TopK{items: make(map[string]*keyItem, k), k: k}
}

// Note records one observation of a sharding-key value.
func (t *TopK) Note(table, column, value string) {
	if t == nil {
		return
	}
	key := table + "\x00" + column + "\x00" + value
	// The kept value is key's copy: a literal's value may be a slice of its
	// statement's text, which it must not keep alive.
	value = key[len(key)-len(value):]
	t.mu.Lock()
	defer t.mu.Unlock()
	if it := t.items[key]; it != nil {
		it.Count++
		return
	}
	if len(t.items) < t.k {
		t.items[key] = &keyItem{Table: table, Column: column, Value: value, Count: 1}
		return
	}
	// Space-saving eviction: replace the minimum counter and inherit its
	// count, recording it as the new item's maximum overestimate.
	var min *keyItem
	var minKey string
	for k, it := range t.items {
		if min == nil || it.Count < min.Count {
			min, minKey = it, k
		}
	}
	delete(t.items, minKey)
	t.items[key] = &keyItem{
		Table: table, Column: column, Value: value,
		Count: min.Count + 1, MaxError: min.Count,
	}
}

// Top returns up to n monitored values ordered by estimated count.
func (t *TopK) Top(n int) []KeyReport {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]KeyReport, 0, len(t.items))
	for _, it := range t.items {
		out = append(out, KeyReport{
			Table: it.Table, Column: it.Column, Value: it.Value,
			Count: it.Count, MaxError: it.MaxError,
		})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Value < out[j].Value
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Reset drops all monitored values.
func (t *TopK) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.items = make(map[string]*keyItem, t.k)
	t.mu.Unlock()
}

// Package btree implements an in-memory B-tree keyed by SQL value tuples.
// It backs the storage engine's primary and secondary indexes: point
// lookups and ordered range scans are O(log n), and — as the paper observes
// for its data-size experiment (Fig. 10) — lookup cost grows with the tree
// height, so sharding a table into smaller trees genuinely reduces per-row
// access cost.
//
// A key of one integer column, which is what every primary key in the
// paper's workloads is, lives in the tree node itself; comparing two of
// them reads nothing outside the node.
package btree

import (
	"cmp"
	"slices"

	"shardingsphere/internal/sqltypes"
)

// degree is the minimum number of children per internal node. At 16 a node
// holds 15 to 31 items of 40 bytes, so a binary search reads at most five
// of them, and a 1,000-row shard is three levels deep.
const degree = 16

const (
	maxItems = 2*degree - 1
	minItems = degree - 1
)

// Key is a tuple key of at least one column. Keys compare column-wise with
// sqltypes.Compare.
type Key = sqltypes.Row

// CompareKeys orders two tuple keys column by column; a shorter key that is
// a prefix of a longer one sorts first, which makes prefix range scans on
// composite indexes natural.
func CompareKeys(a, b Key) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := sqltypes.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// ikey is a key as the tree holds and probes it. A key of one KindInt
// column is the lane alone; any other key is the tuple. Two lanes compare
// as sqltypes.Compare compares two KindInt values, and every other pairing
// goes through CompareKeys, so the tree's order is exactly CompareKeys'.
type ikey struct {
	lane  int64
	tuple Key // nil: the key is the integer in lane
}

func inline(k Key) ikey {
	if len(k) == 1 && k[0].Kind == sqltypes.KindInt {
		return ikey{lane: k[0].I}
	}
	return ikey{tuple: k}
}

// full returns the key as a tuple, spelling a lane out into buf.
func (k *ikey) full(buf *[1]sqltypes.Value) Key {
	if k.tuple != nil {
		return k.tuple
	}
	buf[0] = sqltypes.NewInt(k.lane)
	return buf[:]
}

// compare is CompareKeys on the two keys' tuples, the first cut to the
// second's length when only a prefix is to be compared. The callers on the
// read path settle two lanes themselves.
func (k *ikey) compare(o *ikey, prefix bool) int {
	var kb, ob [1]sqltypes.Value
	kt, ot := k.full(&kb), o.full(&ob)
	if prefix && len(kt) > len(ot) {
		kt = kt[:len(ot)]
	}
	return CompareKeys(kt, ot)
}

// past reports whether the key lies beyond the upper bound hi: whether its
// leading len(hi) columns compare greater than hi.
func (k *ikey) past(hi *ikey) bool {
	if k.tuple == nil && hi.tuple == nil {
		return k.lane > hi.lane
	}
	return k.compare(hi, true) > 0
}

type item[V any] struct {
	ikey
	val V
}

// node holds its items in its own store, one allocation with nothing to
// chase between a node and its keys. Both slices have their full capacity
// from the start, so slices.Insert never reallocates, and slices.Delete
// zeroes what it vacates, so a node retains no value the tree gave up.
type node[V any] struct {
	items    []item[V]
	children []*node[V] // nil for leaves
	store    [maxItems]item[V]
}

func newNode[V any](leaf bool) *node[V] {
	n := &node[V]{}
	n.items = n.store[:0]
	if !leaf {
		n.children = make([]*node[V], 0, maxItems+1)
	}
	return n
}

func (n *node[V]) leaf() bool { return len(n.children) == 0 }

// Tree is a B-tree map from Key to V. Not safe for concurrent use; the
// storage engine serializes access with its table latches.
type Tree[V any] struct {
	root *node[V]
	size int
}

// New returns an empty tree.
func New[V any]() *Tree[V] { return &Tree[V]{root: newNode[V](true)} }

// Len returns the number of entries.
func (t *Tree[V]) Len() int { return t.size }

// search finds the first position within the node's items whose key is not
// below key, and whether the key there equals it.
func (n *node[V]) search(key *ikey) (int, bool) {
	lo, hi, found := 0, len(n.items), false
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		var c int
		if it := &n.items[mid]; it.tuple == nil && key.tuple == nil {
			c = cmp.Compare(it.lane, key.lane)
		} else {
			c = it.compare(key, false)
		}
		if c < 0 {
			lo = mid + 1
		} else {
			hi, found = mid, c == 0
		}
	}
	return lo, found
}

// Get returns the value stored at key.
func (t *Tree[V]) Get(key Key) (V, bool) {
	k := inline(key)
	n := t.root
	for {
		i, ok := n.search(&k)
		if ok {
			return n.items[i].val, true
		}
		if n.leaf() {
			var zero V
			return zero, false
		}
		n = n.children[i]
	}
}

// Set inserts or replaces the value at key, returning the previous value.
func (t *Tree[V]) Set(key Key, val V) (V, bool) {
	if len(t.root.items) == maxItems {
		old := t.root
		t.root = newNode[V](false)
		t.root.children = append(t.root.children, old)
		t.root.splitChild(0)
	}
	prev, replaced := t.root.set(item[V]{inline(key), val})
	if !replaced {
		t.size++
	}
	return prev, replaced
}

func (n *node[V]) set(it item[V]) (V, bool) {
	i, ok := n.search(&it.ikey)
	if !ok && !n.leaf() && len(n.children[i].items) == maxItems {
		n.splitChild(i) // hoists an item to position i: look again
		i, ok = n.search(&it.ikey)
	}
	switch {
	case ok:
		prev := n.items[i].val
		n.items[i].val = it.val
		return prev, true
	case n.leaf():
		n.items = slices.Insert(n.items, i, it)
		var zero V
		return zero, false
	}
	return n.children[i].set(it)
}

// splitChild splits the full child at index i, hoisting its median item.
func (n *node[V]) splitChild(i int) {
	child := n.children[i]
	median := child.items[minItems]
	right := newNode[V](child.leaf())
	right.items = append(right.items, child.items[minItems+1:]...)
	child.items = slices.Delete(child.items, minItems, len(child.items))
	if !child.leaf() {
		right.children = append(right.children, child.children[minItems+1:]...)
		child.children = slices.Delete(child.children, minItems+1, len(child.children))
	}
	n.items = slices.Insert(n.items, i, median)
	n.children = slices.Insert(n.children, i+1, right)
}

// Delete removes key, returning its value.
func (t *Tree[V]) Delete(key Key) (V, bool) {
	k := inline(key)
	val, ok := t.root.delete(&k)
	if ok {
		t.size--
	}
	if len(t.root.items) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	return val, ok
}

// delete follows the classic CLRS algorithm: before descending into a
// child, that child is guaranteed to hold at least `degree` items, so the
// removal at the leaf never leaves an underfull node behind.
func (n *node[V]) delete(key *ikey) (V, bool) {
	i, found := n.search(key)
	if n.leaf() {
		if !found {
			var zero V
			return zero, false
		}
		val := n.items[i].val
		n.items = slices.Delete(n.items, i, i+1)
		return val, true
	}
	if found {
		val := n.items[i].val
		switch {
		case len(n.children[i].items) > minItems:
			// Replace with predecessor and delete it from the left child.
			pred := n.children[i].max()
			n.items[i] = pred
			n.children[i].delete(&pred.ikey)
		case len(n.children[i+1].items) > minItems:
			// Replace with successor and delete it from the right child.
			succ := n.children[i+1].min()
			n.items[i] = succ
			n.children[i+1].delete(&succ.ikey)
		default:
			// Merge the two children around the key, then delete from the
			// merged child.
			n.mergeChildren(i)
			n.children[i].delete(key)
		}
		return val, true
	}
	// Key lives in subtree i; ensure that child can lose an item.
	if len(n.children[i].items) == minItems {
		i = n.fillChild(i)
	}
	return n.children[i].delete(key)
}

// max returns the maximum item of the subtree.
func (n *node[V]) max() item[V] {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.items[len(n.items)-1]
}

// min returns the minimum item of the subtree.
func (n *node[V]) min() item[V] {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.items[0]
}

// fillChild grows children[i] to at least degree items by borrowing from a
// sibling or merging, and returns the (possibly shifted) index of the child
// that now covers the original key range.
func (n *node[V]) fillChild(i int) int {
	child := n.children[i]
	// Borrow from left sibling.
	if i > 0 && len(n.children[i-1].items) > minItems {
		left := n.children[i-1]
		last := len(left.items) - 1
		child.items = slices.Insert(child.items, 0, n.items[i-1])
		n.items[i-1] = left.items[last]
		left.items = slices.Delete(left.items, last, last+1)
		if !child.leaf() {
			child.children = slices.Insert(child.children, 0, left.children[last+1])
			left.children = slices.Delete(left.children, last+1, last+2)
		}
		return i
	}
	// Borrow from right sibling.
	if i < len(n.children)-1 && len(n.children[i+1].items) > minItems {
		right := n.children[i+1]
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items[0]
		right.items = slices.Delete(right.items, 0, 1)
		if !child.leaf() {
			child.children = append(child.children, right.children[0])
			right.children = slices.Delete(right.children, 0, 1)
		}
		return i
	}
	// Merge with a sibling; the merged child covers the key range.
	if i > 0 {
		n.mergeChildren(i - 1)
		return i - 1
	}
	n.mergeChildren(i)
	return i
}

// mergeChildren merges children i and i+1 around separator item i.
func (n *node[V]) mergeChildren(i int) {
	left, right := n.children[i], n.children[i+1]
	left.items = append(left.items, n.items[i])
	left.items = append(left.items, right.items...)
	left.children = append(left.children, right.children...)
	n.items = slices.Delete(n.items, i, i+1)
	n.children = slices.Delete(n.children, i+1, i+2)
}

// Ascend visits every value in key order until fn returns false.
func (t *Tree[V]) Ascend(fn func(V) bool) {
	t.root.ascend(nil, nil, fn)
}

// AscendRange visits values in key order until fn returns false, from the
// first key >= lo to the last key whose leading len(hi) columns are <= hi:
// for bounds as long as the keys that is lo <= key <= hi, and a shorter hi
// takes in every key it is a prefix of. Nil bounds are open.
func (t *Tree[V]) AscendRange(lo, hi Key, fn func(V) bool) {
	var l, h *ikey
	if lo != nil {
		k := inline(lo)
		l = &k
	}
	if hi != nil {
		k := inline(hi)
		h = &k
	}
	t.root.ascend(l, h, fn)
}

// ascend walks the subtree in order. lo is compared once per level, to
// find where to start: only the first subtree entered can hold keys below
// it.
func (n *node[V]) ascend(lo, hi *ikey, fn func(V) bool) bool {
	i := 0
	if lo != nil {
		i, _ = n.search(lo)
	}
	for ; ; i++ {
		if !n.leaf() && !n.children[i].ascend(lo, hi, fn) {
			return false
		}
		if i == len(n.items) {
			return true
		}
		lo = nil
		it := &n.items[i]
		if (hi != nil && it.past(hi)) || !fn(it.val) {
			return false
		}
	}
}

// Height returns the tree height (0 for an empty tree); exported for tests
// and for the engine's statistics.
func (t *Tree[V]) Height() int {
	h := 0
	n := t.root
	for {
		if len(n.items) > 0 {
			h++
		}
		if n.leaf() {
			return h
		}
		n = n.children[0]
	}
}

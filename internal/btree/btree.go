// Package btree implements an in-memory B-tree keyed by SQL value tuples.
// It backs the storage engine's primary and secondary indexes: point
// lookups and ordered range scans are O(log n), and — as the paper observes
// for its data-size experiment (Fig. 10) — lookup cost grows with the tree
// height, so sharding a table into smaller trees genuinely reduces per-row
// access cost.
//
// A tree has a width, the number of columns its keys have. In a tree of
// width 1 or 2 a key of that many integer columns — an INT primary key, or
// the (INT column, row id) entry of an index — lives in the tree item
// itself; storing it allocates nothing, and comparing two of them reads
// nothing outside the node.
package btree

import (
	"cmp"
	"slices"
	"strings"
	"unsafe"

	"shardingsphere/internal/sqltypes"
)

// degree is the minimum number of children per internal node. At 16 a node
// holds 15 to 31 items of 32 bytes (a leaf an append split started, fewer
// until keys fill it), so a binary search reads at most five of them, and
// a 1,000-row shard is three levels deep.
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

// ikey is a key as the tree holds it. A key of as many KindInt columns as
// the tree's width, when that is 1 or 2, is its lanes and tuple is nil; any
// other key is a tuple the tree owns, tuple pointing at its first column
// and lanes[0] holding its length.
type ikey struct {
	lanes [2]int64
	tuple *sqltypes.Value
}

// probe returns the stored key as a probe of its tree.
func (k *ikey) probe(width int) probe {
	if k.tuple != nil {
		return probe{n: int(k.lanes[0]), tuple: unsafe.Slice(k.tuple, k.lanes[0]), width: width}
	}
	return laneProbe(k.lanes, width, width)
}

// probe is a key as one operation holds it: a key of one or two KindInt
// columns is its n lanes, any other key the caller's tuple, only read.
// Two lane forms compare as integers, which is what sqltypes.Compare does
// for two KindInt values, and keep CompareKeys' prefix rule; every other
// pairing spells both keys out on the stack and calls CompareKeys, so the
// tree's order is exactly CompareKeys'.
type probe struct {
	lanes [2]int64
	n     int  // columns
	tuple Key  // nil: the key is its lanes
	width int  // the tree's: the lanes of a stored lane key
	both  bool // a stored lane key and the probe share two lanes
	tie   int  // a stored lane key against the probe when their shared lanes are equal
}

func laneProbe(lanes [2]int64, n, width int) probe {
	return probe{lanes: lanes, n: n, width: width, both: n == 2 && width == 2, tie: cmp.Compare(width, n)}
}

func (t *Tree[V]) probe(k Key) probe {
	switch {
	case len(k) == 1 && k[0].Kind == sqltypes.KindInt:
		return laneProbe([2]int64{k[0].I}, 1, t.width)
	case len(k) == 2 && k[0].Kind == sqltypes.KindInt && k[1].Kind == sqltypes.KindInt:
		return laneProbe([2]int64{k[0].I, k[1].I}, 2, t.width)
	}
	return probe{n: len(k), tuple: k, width: t.width}
}

// spell returns the probe as a tuple, writing lanes out into buf.
func (p *probe) spell(buf *[2]sqltypes.Value) Key {
	if p.tuple != nil {
		return p.tuple
	}
	for i := range p.n {
		buf[i] = sqltypes.NewInt(p.lanes[i])
	}
	return buf[:p.n]
}

// order compares the stored key k with the probe as CompareKeys compares
// their tuples, k first; with prefix, only k's leading p.n columns count.
func (p *probe) order(k *ikey, prefix bool) int {
	if k.tuple == nil && p.tuple == nil {
		return p.laneOrder(k, prefix)
	}
	var kb, pb [2]sqltypes.Value
	sk := k.probe(p.width)
	kt, pt := sk.spell(&kb), p.spell(&pb)
	if prefix && len(kt) > len(pt) {
		kt = kt[:len(pt)]
	}
	return CompareKeys(kt, pt)
}

// laneOrder is order for a stored lane key and a lane probe.
func (p *probe) laneOrder(k *ikey, prefix bool) int {
	c := compareLane(k.lanes[0], p.lanes[0])
	if c == 0 && p.both {
		c = compareLane(k.lanes[1], p.lanes[1])
	}
	if c == 0 && !prefix {
		c = p.tie
	}
	return c
}

// compareLane is cmp.Compare for int64 at an inlining cost that keeps
// laneOrder inlinable into search.
func compareLane(a, b int64) int {
	if a < b {
		return -1
	}
	if a > b {
		return 1
	}
	return 0
}

// stored returns the key as the tree keeps it: its lanes when they are as
// many as the tree's width, otherwise a copy of its tuple and its strings,
// so the caller's may live on its stack and be reused, and a string it
// views in a larger buffer (a stored record) does not keep that alive.
func (p *probe) stored() ikey {
	if p.tuple == nil && p.n == p.width {
		return ikey{lanes: p.lanes}
	}
	var buf [2]sqltypes.Value
	own := slices.Clone(p.spell(&buf))
	for i := range own {
		own[i].S = strings.Clone(own[i].S)
	}
	return ikey{lanes: [2]int64{int64(len(own))}, tuple: unsafe.SliceData(own)}
}

type item[V any] struct {
	ikey
	val V
}

// node holds its items in its own store, one allocation with nothing to
// chase between a node and its keys; the first count are in use, and in
// an internal node the first count+1 children. slices.Insert and append
// work in place on items(), and slices.Delete, like deleteChild, zeroes
// what it vacates, so a node retains no value the tree gave up. Go puts an
// 8-byte header before an object over 512 bytes that holds pointers, so a
// node of 8-byte values, at 1,008 bytes, is allocated from the 1,024-byte
// class; a second slice header would put it in the 1,152-byte one.
type node[V any] struct {
	children *[maxItems + 1]*node[V] // nil for leaves
	count    int
	store    [maxItems]item[V]
}

func newNode[V any](leaf bool) *node[V] {
	n := &node[V]{}
	if !leaf {
		n.children = new([maxItems + 1]*node[V])
	}
	return n
}

func (n *node[V]) leaf() bool { return n.children == nil }

// items returns the items in use, a slice of the store from its start.
func (n *node[V]) items() []item[V] { return n.store[:n.count] }

// setItems makes s, what slices.Insert, slices.Delete or append returned
// for items() within the store's capacity, the items in use.
func (n *node[V]) setItems(s []item[V]) { n.count = len(s) }

// insertChild puts c at position i of an internal node's children, before
// the item that goes with it is inserted.
func (n *node[V]) insertChild(i int, c *node[V]) {
	copy(n.children[i+1:], n.children[i:n.count+1])
	n.children[i] = c
}

// deleteChild removes and returns the child at position i, before the item
// that goes with it is deleted.
func (n *node[V]) deleteChild(i int) *node[V] {
	c := n.children[i]
	copy(n.children[i:], n.children[i+1:n.count+1])
	n.children[n.count] = nil
	return c
}

// Tree is a B-tree map from Key to V. Not safe for concurrent use; the
// storage engine serializes access with its table latches.
type Tree[V any] struct {
	root  *node[V]
	width int
}

// New returns an empty tree whose keys have width columns.
func New[V any](width int) *Tree[V] { return &Tree[V]{root: newNode[V](true), width: width} }

// search finds the first position within the node's items whose key is not
// below the probe, and whether the key there equals it.
func (n *node[V]) search(p *probe) (int, bool) {
	lo, hi, found := 0, n.count, false
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		var c int
		if k := &n.store[mid].ikey; k.tuple == nil && p.tuple == nil {
			c = p.laneOrder(k, false) // order's lane case, inlined
		} else {
			c = p.order(k, false)
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
	p := t.probe(key)
	n := t.root
	for {
		i, ok := n.search(&p)
		if ok {
			return n.store[i].val, true
		}
		if n.leaf() {
			var zero V
			return zero, false
		}
		n = n.children[i]
	}
}

// Set inserts or replaces the value at key, returning the previous value.
// The tree keeps no reference to key.
func (t *Tree[V]) Set(key Key, val V) (V, bool) {
	p := t.probe(key)
	if t.root.count == maxItems {
		old := t.root
		t.root = newNode[V](false)
		t.root.children[0] = old
		t.root.splitChild(0, &p)
	}
	return t.root.set(&p, val)
}

func (n *node[V]) set(p *probe, val V) (V, bool) {
	i, ok := n.search(p)
	if !ok && !n.leaf() && n.children[i].count == maxItems {
		n.splitChild(i, p) // hoists an item to position i: look again
		i, ok = n.search(p)
	}
	switch {
	case ok:
		prev := n.store[i].val
		n.store[i].val = val
		return prev, true
	case n.leaf():
		n.setItems(slices.Insert(n.items(), i, item[V]{p.stored(), val}))
		var zero V
		return zero, false
	}
	return n.children[i].set(p, val)
}

// splitChild splits the full child at index i, which p is on its way into,
// hoisting one of its items to position i. A last child that is a leaf,
// split for a key above all of it, keeps all but its last item, which is
// hoisted, and the key starts a new right leaf, so keys set in ascending
// order fill their leaves; any other child is split at its median.
func (n *node[V]) splitChild(i int, p *probe) {
	child := n.children[i]
	at := minItems
	if child.leaf() && i == n.count && p.order(&child.store[maxItems-1].ikey, false) < 0 {
		at = maxItems - 1
	}
	hoisted := child.store[at]
	right := newNode[V](child.leaf())
	if !child.leaf() {
		copy(right.children[:], child.children[at+1:])
		clear(child.children[at+1:])
	}
	right.setItems(append(right.items(), child.store[at+1:]...))
	child.setItems(slices.Delete(child.items(), at, maxItems))
	n.insertChild(i+1, right)
	n.setItems(slices.Insert(n.items(), i, hoisted))
}

// Delete removes key, returning its value.
func (t *Tree[V]) Delete(key Key) (V, bool) {
	p := t.probe(key)
	val, ok := t.root.delete(&p)
	if t.root.count == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	return val, ok
}

// delete follows the classic CLRS algorithm: before descending into a
// child, that child is topped up to more than minItems items, so the
// removal at the leaf never leaves an empty node behind. A leaf an append
// split started holds fewer until keys fill it, and is topped up the same
// way.
func (n *node[V]) delete(key *probe) (V, bool) {
	i, found := n.search(key)
	if n.leaf() {
		if !found {
			var zero V
			return zero, false
		}
		val := n.store[i].val
		n.setItems(slices.Delete(n.items(), i, i+1))
		return val, true
	}
	if found {
		val := n.store[i].val
		switch {
		case n.children[i].count > minItems:
			// Replace with predecessor and delete it from the left child.
			pred := n.children[i].max()
			n.store[i] = pred
			p := pred.probe(key.width)
			n.children[i].delete(&p)
		case n.children[i+1].count > minItems:
			// Replace with successor and delete it from the right child.
			succ := n.children[i+1].min()
			n.store[i] = succ
			p := succ.probe(key.width)
			n.children[i+1].delete(&p)
		default:
			// Merge the two children around the key, then delete from the
			// merged child.
			n.mergeChildren(i)
			n.children[i].delete(key)
		}
		return val, true
	}
	// Key lives in subtree i; ensure that child can lose an item.
	if n.children[i].count <= minItems {
		i = n.fillChild(i)
	}
	return n.children[i].delete(key)
}

// max returns the maximum item of the subtree.
func (n *node[V]) max() item[V] {
	for !n.leaf() {
		n = n.children[n.count]
	}
	return n.store[n.count-1]
}

// min returns the minimum item of the subtree.
func (n *node[V]) min() item[V] {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.store[0]
}

// fillChild grows children[i] by an item, borrowing from a sibling, or
// merges it with one, and returns the (possibly shifted) index of the
// child that now covers the original key range.
func (n *node[V]) fillChild(i int) int {
	child := n.children[i]
	// Borrow from left sibling.
	if i > 0 && n.children[i-1].count > minItems {
		left := n.children[i-1]
		last := left.count - 1
		if !child.leaf() {
			child.insertChild(0, left.deleteChild(last+1))
		}
		child.setItems(slices.Insert(child.items(), 0, n.store[i-1]))
		n.store[i-1] = left.store[last]
		left.setItems(slices.Delete(left.items(), last, last+1))
		return i
	}
	// Borrow from right sibling.
	if i < n.count && n.children[i+1].count > minItems {
		right := n.children[i+1]
		if !child.leaf() {
			child.insertChild(child.count+1, right.deleteChild(0))
		}
		child.setItems(append(child.items(), n.store[i]))
		n.store[i] = right.store[0]
		right.setItems(slices.Delete(right.items(), 0, 1))
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

// mergeChildren merges children i and i+1 around separator item i; each
// holds at most minItems items, so the merged child fits.
func (n *node[V]) mergeChildren(i int) {
	left, right := n.children[i], n.deleteChild(i+1)
	if !left.leaf() {
		copy(left.children[left.count+1:], right.children[:right.count+1])
	}
	left.setItems(append(append(left.items(), n.store[i]), right.items()...))
	n.setItems(slices.Delete(n.items(), i, i+1))
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
	var l, h *probe
	if lo != nil {
		p := t.probe(lo)
		l = &p
	}
	if hi != nil {
		p := t.probe(hi)
		h = &p
	}
	t.root.ascend(l, h, fn)
}

// ascend walks the subtree in order. lo is compared once per level, to
// find where to start: only the first subtree entered can hold keys below
// it.
func (n *node[V]) ascend(lo, hi *probe, fn func(V) bool) bool {
	i := 0
	if lo != nil {
		i, _ = n.search(lo)
	}
	for ; ; i++ {
		if !n.leaf() && !n.children[i].ascend(lo, hi, fn) {
			return false
		}
		if i == n.count {
			return true
		}
		lo = nil
		it := &n.store[i]
		if (hi != nil && hi.order(&it.ikey, true) > 0) || !fn(it.val) {
			return false
		}
	}
}

package btree

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"shardingsphere/internal/sqltypes"
)

func intKey(v int64) Key     { return Key{sqltypes.NewInt(v)} }
func floatKey(v float64) Key { return Key{sqltypes.NewFloat(v)} }
func strKey(v string) Key    { return Key{sqltypes.NewString(v)} }

// oracle is the reference the tree is checked against: entries kept sorted
// by CompareKeys in a slice, every operation a linear pass.
type oracle []entry

type entry struct {
	key Key
	val int
}

func (o oracle) find(k Key) int {
	return slices.IndexFunc(o, func(e entry) bool { return CompareKeys(e.key, k) == 0 })
}

func (o *oracle) set(k Key, v int) (int, bool) {
	if i := o.find(k); i >= 0 {
		prev := (*o)[i].val
		(*o)[i].val = v
		return prev, true
	}
	at := slices.IndexFunc(*o, func(e entry) bool { return CompareKeys(e.key, k) > 0 })
	if at < 0 {
		at = len(*o)
	}
	*o = slices.Insert(*o, at, entry{k, v})
	return 0, false
}

func (o *oracle) delete(k Key) (int, bool) {
	i := o.find(k)
	if i < 0 {
		return 0, false
	}
	v := (*o)[i].val
	*o = slices.Delete(*o, i, i+1)
	return v, true
}

// between lists the values AscendRange must visit: keys not below lo whose
// leading len(hi) columns are not above hi.
func (o oracle) between(lo, hi Key) []int {
	var out []int
	for _, e := range o {
		k := e.key
		if lo != nil && CompareKeys(k, lo) < 0 {
			continue
		}
		if hi != nil {
			if len(k) > len(hi) {
				k = k[:len(hi)]
			}
			if CompareKeys(k, hi) > 0 {
				continue
			}
		}
		out = append(out, e.val)
	}
	return out
}

// source is where a check draws its choices: a seeded generator or a
// fuzzer's bytes.
type source interface{ Intn(n int) int }

// keyFamily is one kind of stored key with the probes that go with it, and
// the width of the tree that holds them. Stored keys of a family compare
// under CompareKeys as a total preorder (keys that compare equal are one
// key); probes may be of another kind as long as they compare
// monotonically against the stored ones.
type keyFamily struct {
	name   string
	width  int
	stored func(source) Key
	probe  func(source) Key
	// ascending replaces stored and probe with integer keys that mostly
	// climb above every key drawn before, as an auto-increment column's do.
	ascending bool
}

var boundaryInts = []int64{math.MinInt64, math.MinInt64 + 1, -1 << 53, -2, -1, 0, 1, 2, 1 << 53, math.MaxInt64 - 1, math.MaxInt64}

func smallInt(r source) int64 { return int64(r.Intn(400)) - 200 }

// laneInt is a lane of a two-lane key: few distinct values, so leading
// lanes collide, and now and then an int64 boundary.
func laneInt(r source) int64 {
	if r.Intn(8) == 0 {
		return boundaryInts[r.Intn(len(boundaryInts))]
	}
	return int64(r.Intn(12)) - 2
}

func twoInts(a, b int64) Key { return Key{sqltypes.NewInt(a), sqltypes.NewInt(b)} }

var families = []keyFamily{
	{
		// The lane with exact probes: negative, boundary and dense small
		// integers.
		name:  "int",
		width: 1,
		stored: func(r source) Key {
			if r.Intn(8) == 0 {
				return intKey(boundaryInts[r.Intn(len(boundaryInts))])
			}
			return intKey(smallInt(r))
		},
		probe: func(r source) Key { return intKey(smallInt(r)) },
	},
	{
		// Integer keys probed the way "id BETWEEN 1.5 AND '7'" probes them:
		// the lane must fall back to sqltypes.Compare's coercions.
		name:   "int keys, float and string probes",
		width:  1,
		stored: func(r source) Key { return intKey(smallInt(r)) },
		probe: func(r source) Key {
			switch r.Intn(3) {
			case 0:
				return floatKey(float64(smallInt(r)) + 0.5)
			case 1:
				return floatKey(float64(smallInt(r)))
			default:
				return strKey(fmt.Sprint(smallInt(r)))
			}
		},
	},
	{
		name:   "string",
		width:  1,
		stored: func(r source) Key { return strKey(fmt.Sprintf("k%03d", r.Intn(300))) },
		probe:  func(r source) Key { return strKey(fmt.Sprintf("k%02d", r.Intn(40))) },
	},
	{
		// Two columns, few distinct leading values: the shape of a
		// secondary-index entry. Probes are the leading column alone.
		name:  "two-column",
		width: 2,
		stored: func(r source) Key {
			return twoInts(int64(r.Intn(12)), int64(r.Intn(40)))
		},
		probe: func(r source) Key { return intKey(int64(r.Intn(14)) - 1) },
	},
	{
		// Two lanes with int64 boundaries in either, probed by both
		// columns or by the leading one.
		name:   "two-lane",
		width:  2,
		stored: func(r source) Key { return twoInts(laneInt(r), laneInt(r)) },
		probe: func(r source) Key {
			if r.Intn(4) == 0 {
				return intKey(laneInt(r))
			}
			return twoInts(laneInt(r), laneInt(r))
		},
	},
	{
		// An index entry over an INT column whose rows hold what the node
		// stores uncoerced: lanes beside tuples led by NULL, a numeric
		// string and a float. One string only, so that the order stays a
		// total preorder ('020' is 20 against numbers, but '020' < '3').
		name:  "lanes mixed with tuples",
		width: 2,
		stored: func(r source) Key {
			id := sqltypes.NewInt(int64(r.Intn(6)))
			switch r.Intn(6) {
			case 0:
				return Key{sqltypes.Null, id}
			case 1:
				return Key{sqltypes.NewString("020"), id}
			case 2:
				return Key{sqltypes.NewFloat(float64(r.Intn(50)) / 2), id}
			default:
				return Key{sqltypes.NewInt(int64(r.Intn(26))), id}
			}
		},
		probe: func(r source) Key {
			switch r.Intn(4) {
			case 0:
				return intKey(int64(r.Intn(28)) - 1)
			case 1:
				return Key{sqltypes.Null}
			case 2:
				return floatKey(float64(r.Intn(54))/2 - 1)
			default:
				return twoInts(int64(r.Intn(28))-1, int64(r.Intn(7)))
			}
		},
	},
	{
		// A width-1 tree probed with two columns: the stored key is a
		// prefix of the probe, so it sorts first.
		name:   "int keys, two-column probes",
		width:  1,
		stored: func(r source) Key { return intKey(int64(r.Intn(60)) - 30) },
		probe: func(r source) Key {
			if r.Intn(4) == 0 {
				return twoInts(laneInt(r), laneInt(r))
			}
			return twoInts(int64(r.Intn(64))-32, smallInt(r))
		},
	},
	{
		// Append splits, and deletes and mid-range inserts among the short
		// leaves they start.
		name:      "mostly ascending",
		width:     1,
		ascending: true,
	},
}

// ascendingKeys returns the stored keys and probes of an ascending family:
// seven in eight stored keys climb by 1 to 3 above the highest so far, the
// rest land at or below it, as do probes.
func ascendingKeys() (stored, probe func(source) Key) {
	top := 0
	below := func(r source) Key { return intKey(int64(r.Intn(top + 2))) }
	return func(r source) Key {
		if r.Intn(8) == 0 {
			return below(r)
		}
		top += 1 + r.Intn(3)
		return intKey(int64(top))
	}, below
}

// entries counts a tree's entries by walking them.
func entries[V any](tr *Tree[V]) int {
	n := 0
	tr.Ascend(func(V) bool { n++; return true })
	return n
}

// checkStructure walks the tree and fails on a broken shape: keys out of
// order, leaves at different depths, an empty node other than the root, an
// internal node without one more child than items, or a vacated item or
// child slot that still holds a key or a child.
func checkStructure[V any](t *testing.T, tr *Tree[V], op int) {
	t.Helper()
	var prev Key
	var bufs [2][2]sqltypes.Value // prev's spelling and the next key's
	next := 0
	leafDepth := -1
	var walk func(n *node[V], depth int)
	walk = func(n *node[V], depth int) {
		switch {
		case n.count == 0 && n != tr.root:
			t.Fatalf("op %d: empty node at depth %d", op, depth)
		case !n.leaf() && slices.Contains(n.children[:n.count+1], nil):
			t.Fatalf("op %d: fewer than %d children for %d items", op, n.count+1, n.count)
		case !n.leaf() && slices.ContainsFunc(n.children[n.count+1:], func(c *node[V]) bool { return c != nil }):
			t.Fatalf("op %d: more than %d children for %d items", op, n.count+1, n.count)
		case n.leaf() && leafDepth < 0:
			leafDepth = depth
		case n.leaf() && depth != leafDepth:
			t.Fatalf("op %d: leaves at depths %d and %d", op, leafDepth, depth)
		}
		for i := n.count; i < maxItems; i++ {
			if n.store[i].ikey != (ikey{}) {
				t.Fatalf("op %d: vacated slot %d still holds a key", op, i)
			}
		}
		for i := 0; ; i++ {
			if !n.leaf() {
				walk(n.children[i], depth+1)
			}
			if i == n.count {
				return
			}
			p := n.store[i].probe(tr.width)
			k := p.spell(&bufs[next])
			if prev != nil && CompareKeys(prev, k) >= 0 {
				t.Fatalf("op %d: key %v follows %v", op, k, prev)
			}
			prev, next = k, 1-next
		}
	}
	walk(tr.root, 0)
}

// leafFill is the share of the leaves' item slots in use.
func leafFill[V any](tr *Tree[V]) float64 {
	items, leaves := 0, 0
	var walk func(n *node[V])
	walk = func(n *node[V]) {
		if n.leaf() {
			items, leaves = items+n.count, leaves+1
		}
		for i := 0; !n.leaf() && i <= n.count; i++ {
			walk(n.children[i])
		}
	}
	walk(tr.root)
	return float64(items) / float64(leaves*maxItems)
}

// height is the number of levels holding items, down the first children.
func height[V any](tr *Tree[V]) int {
	h := 0
	for n := tr.root; ; n = n.children[0] {
		if n.count > 0 {
			h++
		}
		if n.leaf() {
			return h
		}
	}
}

// checkAgainstOracle drives a tree of the family's width and the oracle
// with the same Set/Get/Delete/AscendRange operations, ops of them drawn
// from r, and compares every answer. After each Set the caller's key is
// overwritten: the tree must have kept a copy of any tuple it stores.
func checkAgainstOracle(t *testing.T, fam keyFamily, r source, ops int) {
	t.Helper()
	tr := New[int](fam.width)
	var ref oracle
	stored, probe := fam.stored, fam.probe
	if fam.ascending {
		stored, probe = ascendingKeys()
	}
	anyKey := func() Key {
		if r.Intn(4) == 0 {
			return probe(r)
		}
		return stored(r)
	}
	bound := func() Key {
		if r.Intn(5) == 0 {
			return nil
		}
		return anyKey()
	}
	for op := 0; op < ops; op++ {
		switch c := r.Intn(10); {
		case c < 4:
			k := stored(r)
			prev, replaced := tr.Set(k, op)
			wantPrev, wantReplaced := ref.set(slices.Clone(k), op)
			if replaced != wantReplaced || prev != wantPrev {
				t.Fatalf("op %d: Set(%v) = %d, %v; want %d, %v", op, k, prev, replaced, wantPrev, wantReplaced)
			}
			for i := range k {
				k[i] = sqltypes.NewString("overwritten")
			}
		case c < 6:
			k := anyKey()
			v, ok := tr.Get(k)
			want, wantOK := 0, false
			if i := ref.find(k); i >= 0 {
				want, wantOK = ref[i].val, true
			}
			if ok != wantOK || v != want {
				t.Fatalf("op %d: Get(%v) = %d, %v; want %d, %v", op, k, v, ok, want, wantOK)
			}
		case c < 9:
			// Deletes outnumber what would keep the tree growing, so it
			// shrinks through merges and borrows as well.
			k := stored(r)
			if len(ref) > 0 && r.Intn(2) == 0 {
				k = ref[r.Intn(len(ref))].key
			}
			v, ok := tr.Delete(k)
			want, wantOK := ref.delete(k)
			if ok != wantOK || v != want {
				t.Fatalf("op %d: Delete(%v) = %d, %v; want %d, %v", op, k, v, ok, want, wantOK)
			}
		default:
			lo, hi := bound(), bound() // inverted as often as not
			var got []int
			stop := -1
			if r.Intn(4) == 0 {
				stop = r.Intn(5)
			}
			tr.AscendRange(lo, hi, func(v int) bool {
				got = append(got, v)
				return len(got) != stop
			})
			want := ref.between(lo, hi)
			if stop > 0 && len(want) > stop {
				want = want[:stop]
			}
			if !slices.Equal(got, want) {
				t.Fatalf("op %d: AscendRange(%v, %v) stop %d = %v; want %v", op, lo, hi, stop, got, want)
			}
		}
		if n := entries(tr); n != len(ref) {
			t.Fatalf("op %d: %d entries, want %d", op, n, len(ref))
		}
		checkStructure(t, tr, op)
	}
	var all []int
	tr.Ascend(func(v int) bool { all = append(all, v); return true })
	if want := ref.between(nil, nil); !slices.Equal(all, want) {
		t.Fatalf("final Ascend = %v; want %v", all, want)
	}
}

// TestTreeAgainstSortedSlice checks every key family against the oracle
// with seeded random operations.
func TestTreeAgainstSortedSlice(t *testing.T) {
	for fi, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			checkAgainstOracle(t, fam, rand.New(rand.NewSource(int64(20220612+fi))), 12000)
		})
	}
}

// bytesSource draws choices from a fuzzer's input, zeros once it is spent.
type bytesSource []byte

func (b *bytesSource) Intn(n int) int {
	v := 0
	for span := 1; span < n && len(*b) > 0; span <<= 8 {
		v = v<<8 | int((*b)[0])
		*b = (*b)[1:]
	}
	return v % n
}

// FuzzTreeAgainstSortedSlice is TestTreeAgainstSortedSlice with the
// fuzzer's bytes as the choices: the first picks the key family, the rest
// the operations and their keys.
func FuzzTreeAgainstSortedSlice(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{4, 0, 200, 3, 0, 9, 7, 1, 255, 255, 9, 1, 1})
	f.Add([]byte{5, 1, 0, 0, 1, 3, 2, 1, 2, 9, 0, 0, 9, 4, 4})
	// The ascending family: keys 1 to 40 appended (set, climb, by 1), which
	// leaves 32 to 40 in a short last leaf, then the highest key deleted 20
	// times (delete, climb, by 1, an existing key, the last index), which
	// borrows into that leaf rather than emptying it.
	ascend := []byte{byte(len(families) - 1)}
	for range 40 {
		ascend = append(ascend, 0, 1, 0)
	}
	for i := range 20 {
		ascend = append(ascend, 6, 1, 0, 0, byte(39-i))
	}
	f.Add(ascend)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		fam := families[int(data[0])%len(families)]
		src := bytesSource(data[1:])
		checkAgainstOracle(t, fam, &src, min(len(data)/2, 1000))
	})
}

func TestPrefixSortsFirst(t *testing.T) {
	k1 := Key{sqltypes.NewInt(1), sqltypes.NewString("a")}
	if CompareKeys(intKey(1), k1) >= 0 {
		t.Fatal("prefix must sort first")
	}
	if CompareKeys(Key{sqltypes.Null}, intKey(0)) >= 0 {
		t.Fatal("NULL must sort before values")
	}
	if CompareKeys(intKey(2), floatKey(2.5)) >= 0 {
		t.Fatal("cross-kind numeric compare")
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	tr := New[struct{}](1)
	for i := int64(0); i < 100000; i++ {
		tr.Set(intKey(i), struct{}{})
	}
	h := height(tr)
	if h < 2 || h > 6 {
		t.Fatalf("height of 100k sequential keys should be small, got %d", h)
	}
}

// TestAscendingKeysFillLeaves: keys set in ascending order leave their
// leaves at least 90 % full, where a median split left them half full, and
// shuffled keys fill leaves as they did before the append split: the mean
// over five seeds read 0.667 with median splits only.
func TestAscendingKeysFillLeaves(t *testing.T) {
	tr := New[int](1)
	for k := range 1000 {
		tr.Set(intKey(int64(k)), k)
	}
	checkStructure(t, tr, 0)
	if fill := leafFill(tr); fill < 0.9 {
		t.Errorf("1,000 ascending keys fill %.3f of their leaves' slots, want >= 0.9", fill)
	}
	sum := 0.0
	for seed := int64(1); seed <= 5; seed++ {
		tr := New[int](1)
		for _, k := range rand.New(rand.NewSource(seed)).Perm(1000) {
			tr.Set(intKey(int64(k)), k)
		}
		checkStructure(t, tr, 0)
		sum += leafFill(tr)
	}
	if mean := sum / 5; math.Abs(mean-0.667) > 0.02 {
		t.Errorf("1,000 shuffled keys fill %.3f of their leaves' slots, want 0.667 +- 0.02", mean)
	}
}

// TestNodeFitsItsSizeClass: a node of pointer values, which is what the
// storage engine's trees hold, is allocated from the 1,024-byte size class.
// Go puts an 8-byte header before an object over 512 bytes that holds
// pointers, so the node may be 1,016 bytes at most; at 1,040 it took 1,152.
func TestNodeFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(node[*byte]{}); size > 1024-8 {
		t.Fatalf("node[*byte] is %d bytes, want <= 1016", size)
	}
	var nodes [256]*node[*byte]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range nodes {
		nodes[i] = newNode[*byte](true)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(nodes)); per > 1100 {
		t.Fatalf("a leaf takes %d bytes of heap, want 1024", per)
	}
	runtime.KeepAlive(&nodes)
}

func TestDeleteAllDescending(t *testing.T) {
	tr := New[int64](1)
	const n = 2000
	for i := int64(0); i < n; i++ {
		tr.Set(intKey(i), i)
	}
	for i := int64(n - 1); i >= 0; i-- {
		if v, ok := tr.Delete(intKey(i)); !ok || v != i {
			t.Fatalf("delete %d: %d, %v", i, v, ok)
		}
	}
	if n, h := entries(tr), height(tr); n != 0 || h != 0 {
		t.Fatalf("after drain: %d entries, height %d", n, h)
	}
}

// TestLookupsAllocateNothing pins what the lanes are for: finding an
// integer key, by an integer or by any other probe, touches no heap, and
// neither does finding or replacing a two-lane key.
func TestLookupsAllocateNothing(t *testing.T) {
	tr := New[int64](1)
	pairs := New[int64](2)
	for i := int64(0); i < 5000; i++ {
		tr.Set(intKey(i), i)
		pairs.Set(twoInts(i%50, i), i)
	}
	var sum int64
	visit := func(v int64) bool { sum += v; return true }
	for name, fn := range map[string]func(){
		"Get":                     func() { tr.Get(intKey(777)) },
		"Get by float":            func() { tr.Get(floatKey(777)) },
		"AscendRange":             func() { tr.AscendRange(intKey(100), intKey(101), visit) },
		"AscendRange float bound": func() { tr.AscendRange(floatKey(1.5), intKey(7), visit) },
		"two lanes: Get":          func() { pairs.Get(Key{sqltypes.NewInt(27), sqltypes.NewInt(777)}) },
		"two lanes: Set existing": func() { pairs.Set(Key{sqltypes.NewInt(27), sqltypes.NewInt(777)}, 777) },
		"two lanes: AscendRange by the leading lane": func() {
			pairs.AscendRange(Key{sqltypes.NewInt(3)}, Key{sqltypes.NewInt(3)}, visit)
		},
		"two lanes: AscendRange by both lanes": func() {
			pairs.AscendRange(Key{sqltypes.NewInt(3), sqltypes.NewInt(1000)}, Key{sqltypes.NewInt(4), sqltypes.NewInt(0)}, visit)
		},
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %v times", name, n)
		}
	}
	if sum == 0 {
		t.Fatal("ranges visited nothing")
	}
}

func BenchmarkSet(b *testing.B) {
	tr := New[int](1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Set(intKey(int64(i)), i)
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New[int64](1)
	for i := int64(0); i < 100000; i++ {
		tr.Set(intKey(i), i)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Get(intKey(int64(i % 100000)))
	}
}

package btree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

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

// keyFamily is one kind of stored key with the probes that go with it.
// Stored keys of a family share their kinds, so CompareKeys orders them
// totally; probes may be of another kind as long as they compare
// monotonically against the stored ones.
type keyFamily struct {
	name   string
	stored func(*rand.Rand) Key
	probe  func(*rand.Rand) Key
}

var boundaryInts = []int64{math.MinInt64, math.MinInt64 + 1, -1 << 53, -2, -1, 0, 1, 2, 1 << 53, math.MaxInt64 - 1, math.MaxInt64}

func smallInt(rng *rand.Rand) int64 { return int64(rng.Intn(400)) - 200 }

var families = []keyFamily{
	{
		// The inline lane with exact probes: negative, boundary and dense
		// small integers.
		name: "int",
		stored: func(rng *rand.Rand) Key {
			if rng.Intn(8) == 0 {
				return intKey(boundaryInts[rng.Intn(len(boundaryInts))])
			}
			return intKey(smallInt(rng))
		},
		probe: func(rng *rand.Rand) Key { return intKey(smallInt(rng)) },
	},
	{
		// Integer keys probed the way "id BETWEEN 1.5 AND '7'" probes them:
		// the lane must fall back to sqltypes.Compare's coercions.
		name:   "int keys, float and string probes",
		stored: func(rng *rand.Rand) Key { return intKey(smallInt(rng)) },
		probe: func(rng *rand.Rand) Key {
			switch rng.Intn(3) {
			case 0:
				return floatKey(float64(smallInt(rng)) + 0.5)
			case 1:
				return floatKey(float64(smallInt(rng)))
			default:
				return strKey(fmt.Sprint(smallInt(rng)))
			}
		},
	},
	{
		name:   "string",
		stored: func(rng *rand.Rand) Key { return strKey(fmt.Sprintf("k%03d", rng.Intn(300))) },
		probe:  func(rng *rand.Rand) Key { return strKey(fmt.Sprintf("k%02d", rng.Intn(40))) },
	},
	{
		// Two columns, few distinct leading values: the shape of a
		// secondary-index entry. Probes are the leading column alone.
		name: "two-column",
		stored: func(rng *rand.Rand) Key {
			return Key{sqltypes.NewInt(int64(rng.Intn(12))), sqltypes.NewInt(int64(rng.Intn(40)))}
		},
		probe: func(rng *rand.Rand) Key { return intKey(int64(rng.Intn(14)) - 1) },
	},
}

// TestTreeAgainstSortedSlice drives a tree and the oracle with the same
// random Set/Get/Delete/AscendRange operations, per key family, and
// compares every answer.
func TestTreeAgainstSortedSlice(t *testing.T) {
	for fi, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(20220612 + fi)))
			tr := New[int]()
			var ref oracle
			anyKey := func() Key {
				if rng.Intn(4) == 0 {
					return fam.probe(rng)
				}
				return fam.stored(rng)
			}
			bound := func() Key {
				if rng.Intn(5) == 0 {
					return nil
				}
				return anyKey()
			}
			for op := 0; op < 12000; op++ {
				switch r := rng.Intn(10); {
				case r < 4:
					k, v := fam.stored(rng), rng.Int()
					prev, replaced := tr.Set(k, v)
					wantPrev, wantReplaced := ref.set(k, v)
					if replaced != wantReplaced || prev != wantPrev {
						t.Fatalf("op %d: Set(%v) = %d, %v; want %d, %v", op, k, prev, replaced, wantPrev, wantReplaced)
					}
				case r < 6:
					k := anyKey()
					v, ok := tr.Get(k)
					want, wantOK := 0, false
					if i := ref.find(k); i >= 0 {
						want, wantOK = ref[i].val, true
					}
					if ok != wantOK || v != want {
						t.Fatalf("op %d: Get(%v) = %d, %v; want %d, %v", op, k, v, ok, want, wantOK)
					}
				case r < 9:
					// Deletes outnumber what would keep the tree growing, so
					// it shrinks through merges and borrows as well.
					k := fam.stored(rng)
					if len(ref) > 0 && rng.Intn(2) == 0 {
						k = ref[rng.Intn(len(ref))].key
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
					if rng.Intn(4) == 0 {
						stop = rng.Intn(5)
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
				if tr.Len() != len(ref) {
					t.Fatalf("op %d: Len %d, want %d", op, tr.Len(), len(ref))
				}
			}
			var all []int
			tr.Ascend(func(v int) bool { all = append(all, v); return true })
			if want := ref.between(nil, nil); !slices.Equal(all, want) {
				t.Fatalf("final Ascend = %v; want %v", all, want)
			}
		})
	}
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
	tr := New[struct{}]()
	for i := int64(0); i < 100000; i++ {
		tr.Set(intKey(i), struct{}{})
	}
	h := tr.Height()
	if h < 2 || h > 6 {
		t.Fatalf("height of 100k sequential keys should be small, got %d", h)
	}
}

func TestDeleteAllDescending(t *testing.T) {
	tr := New[int64]()
	const n = 2000
	for i := int64(0); i < n; i++ {
		tr.Set(intKey(i), i)
	}
	for i := int64(n - 1); i >= 0; i-- {
		if v, ok := tr.Delete(intKey(i)); !ok || v != i {
			t.Fatalf("delete %d: %d, %v", i, v, ok)
		}
	}
	if tr.Len() != 0 || tr.Height() != 0 {
		t.Fatalf("after drain: len %d height %d", tr.Len(), tr.Height())
	}
}

// TestLookupsAllocateNothing pins what the inline lane is for: finding an
// integer key, by an integer or by any other probe, touches no heap.
func TestLookupsAllocateNothing(t *testing.T) {
	tr := New[int64]()
	for i := int64(0); i < 5000; i++ {
		tr.Set(intKey(i), i)
	}
	var sum int64
	visit := func(v int64) bool { sum += v; return true }
	for name, fn := range map[string]func(){
		"Get":                     func() { tr.Get(intKey(777)) },
		"Get by float":            func() { tr.Get(floatKey(777)) },
		"AscendRange":             func() { tr.AscendRange(intKey(100), intKey(101), visit) },
		"AscendRange float bound": func() { tr.AscendRange(floatKey(1.5), intKey(7), visit) },
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
	tr := New[int]()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Set(intKey(int64(i)), i)
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New[int64]()
	for i := int64(0); i < 100000; i++ {
		tr.Set(intKey(i), i)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Get(intKey(int64(i % 100000)))
	}
}

package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"shardingsphere/internal/btree"
	"shardingsphere/internal/sqltypes"
)

// rowSlot is the stored state of one row: two records (record.go), ""
// meaning none. committed is the version every other transaction reads;
// uncommitted is the pending version private to the owning transaction
// (read-committed isolation), with a pending delete's bit below its id in
// owner, which keeps a slot at 48 bytes. A pending delete clears
// uncommitted unless the row has no committed version: the slot holds no
// key, so it keeps a version to read its key from.
type rowSlot struct {
	id          int64
	committed   string // "" until the creating tx commits
	uncommitted string // "" when no pending write
	owner       int64  // txID<<1 | deleted; 0 = no pending write
}

// ownedBy returns the id of the transaction with a pending write, 0 if none.
func (s *rowSlot) ownedBy() int64 { return s.owner >> 1 }

// deleted reports whether the owner's pending write deletes the row.
func (s *rowSlot) deleted() bool { return s.owner&1 != 0 }

// setDeleted marks the owner's pending write a delete or not.
func (s *rowSlot) setDeleted(d bool) {
	s.owner &^= 1
	if d {
		s.owner |= 1
	}
}

// visible returns the version of the row the transaction may read, or "".
func (s *rowSlot) visible(txID int64) string {
	if owner := s.ownedBy(); owner != 0 && owner == txID {
		if s.deleted() {
			return ""
		}
		if s.uncommitted != "" {
			return s.uncommitted
		}
		return s.committed
	}
	return s.committed
}

// retire empties a slot that has left the table, so a scan entry taken
// before that finds no row behind it.
func (s *rowSlot) retire() {
	s.committed, s.uncommitted, s.owner = "", "", 0
}

// secondaryIndex is a non-unique ordered index. Each version of a row has
// one entry, keyed by its indexed columns followed by the row id, so equal
// keys come back in row-id order and a probe on the columns alone is a
// prefix of every entry it wants.
type secondaryIndex struct {
	name string
	cols []int // schema positions
	tree *btree.Tree[*rowSlot]
}

// keyBuf is room on the caller's stack for a key the trees only read (they
// copy what they keep); a key of more columns than it holds is built on the
// heap instead.
type keyBuf [4]sqltypes.Value

// keyOf writes the entry of version rec (of n columns) of row rowID into
// buf. Its strings view the record; a tree that keeps the key copies them.
func (ix *secondaryIndex) keyOf(buf *keyBuf, rec string, n int, rowID int64) btree.Key {
	key := buf[:0]
	for _, c := range ix.cols {
		key = append(key, column(rec, n, c))
	}
	return append(key, sqltypes.NewInt(rowID))
}

// sameKey reports whether two versions of a row of n columns share their
// entry.
func (ix *secondaryIndex) sameKey(a, b string, n int) bool {
	for _, c := range ix.cols {
		if sqltypes.Compare(column(a, n, c), column(b, n, c)) != 0 {
			return false
		}
	}
	return true
}

// Table is one physical table: a schema, a primary-key B-tree that holds
// the rows, and any secondary indexes. All structural access is serialized by
// mu; long scans hold the read lock for their duration, which mirrors the
// latch behaviour of a single-node engine closely enough for the paper's
// workloads.
type Table struct {
	mu      sync.RWMutex
	name    string
	schema  sqltypes.Schema
	pkCols  []int
	autoCol int // schema position of AUTO_INCREMENT column, -1 if none
	notNull []bool

	autoInc int64
	rowSeq  int64
	pk      *btree.Tree[*rowSlot]
	indexes map[string]*secondaryIndex
	def     atomic.Pointer[string] // Definition's text, set at creation and by each index
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema. The returned slice must not be mutated.
func (t *Table) Schema() sqltypes.Schema { return t.schema }

// PKColumns returns schema positions of the primary key columns.
func (t *Table) PKColumns() []int { return t.pkCols }

// AutoIncrementColumn returns the position of the auto-increment column or
// -1.
func (t *Table) AutoIncrementColumn() int { return t.autoCol }

// Definition renders what a plan compiled against the table reads:
// columns, NOT NULL, primary key, auto-increment column and indexes.
func (t *Table) Definition() string { return *t.def.Load() }

// define sets def; the caller holds t.mu or has not published t yet.
func (t *Table) define() {
	indexes := make([]string, 0, len(t.indexes))
	for name, ix := range t.indexes {
		indexes = append(indexes, fmt.Sprint(name, ix.cols))
	}
	sort.Strings(indexes)
	def := fmt.Sprint(t.schema, t.notNull, t.pkCols, t.autoCol, indexes)
	t.def.Store(&def)
}

// pkKeyOf writes the primary key of version rec into buf.
func (t *Table) pkKeyOf(buf *keyBuf, rec string) (btree.Key, error) {
	key := buf[:0]
	for _, c := range t.pkCols {
		v := column(rec, len(t.schema), c)
		if v.IsNull() {
			return nil, fmt.Errorf("%w: table %s", ErrNullPK, t.name)
		}
		key = append(key, v)
	}
	return key, nil
}

// HasIndexOn reports whether a secondary index exists whose first column
// is the given schema position, returning its name. Of several, it is the
// one of fewest columns, and of those the first by name.
func (t *Table) HasIndexOn(col int) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var best *secondaryIndex
	for _, ix := range t.indexes {
		if ix.cols[0] == col && (best == nil || len(ix.cols) < len(best.cols) ||
			len(ix.cols) == len(best.cols) && ix.name < best.name) {
			best = ix
		}
	}
	if best == nil {
		return "", false
	}
	return best.name, true
}

// ScanEntry is one visible row surfaced by a scan, with the handle Tx.Update,
// Tx.Delete and Tx.Lock need to reach it again. It carries the version the
// scan saw as a record; Decode writes its values into the caller's buffer.
type ScanEntry struct {
	rec  string
	n    int // columns
	slot *rowSlot
}

// Decode appends the row's values to dst and returns the extended slice. A
// string value is a substring of the stored version, so decoding allocates
// nothing when dst has room.
func (se ScanEntry) Decode(dst sqltypes.Row) sqltypes.Row { return decode(se.rec, se.n, dst) }

// visit adapts a scan callback to the trees' values: it passes on the rows
// the transaction may see.
func (t *Table) visit(txID int64, fn func(ScanEntry) bool) func(*rowSlot) bool {
	n := len(t.schema)
	return func(slot *rowSlot) bool {
		rec := slot.visible(txID)
		return rec == "" || fn(ScanEntry{rec: rec, n: n, slot: slot})
	}
}

// Scan visits every visible row in primary-key order until fn returns
// false.
func (t *Table) Scan(txID int64, fn func(ScanEntry) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.pk.Ascend(t.visit(txID, fn))
}

// PKRange visits visible rows with lo <= pk <= hi in key order. Nil bounds
// are open, and a bound of fewer columns than the key stands for every key
// it is a prefix of (btree.AscendRange).
func (t *Table) PKRange(txID int64, lo, hi btree.Key, fn func(ScanEntry) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.pk.AscendRange(lo, hi, t.visit(txID, fn))
}

// PKGet returns the visible row with the given primary key.
func (t *Table) PKGet(txID int64, key btree.Key) (ScanEntry, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	slot, ok := t.pk.Get(key)
	if !ok {
		return ScanEntry{}, false
	}
	rec := slot.visible(txID)
	return ScanEntry{rec: rec, n: len(t.schema), slot: slot}, rec != ""
}

// IndexRange visits visible rows whose index key is within [lo, hi] on the
// named secondary index, in key order and row-id order within a key; a
// bound may name only the index's leading columns. Because index entries
// may be stale relative to a row's visible version, callers must re-check
// their predicates — the query processor always does.
func (t *Table) IndexRange(txID int64, index string, lo, hi btree.Key, fn func(ScanEntry) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix, ok := t.indexes[index]
	if !ok {
		return fmt.Errorf("%w: %s.%s", ErrIndexNotFound, t.name, index)
	}
	ix.tree.AscendRange(lo, hi, t.visit(txID, fn))
	return nil
}

package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"shardingsphere/internal/btree"
	"shardingsphere/internal/sqltypes"
)

// rowSlot is the stored state of one row. committed is the version every
// other transaction reads; uncommitted is the pending version private to
// the owning transaction (read-committed isolation). A pending delete sets
// deleted with owner identifying the deleter.
type rowSlot struct {
	id          int64
	pkKey       btree.Key    // cached primary-key key; immutable for the slot's life
	committed   sqltypes.Row // nil until the creating tx commits
	uncommitted sqltypes.Row // nil when no pending write
	owner       int64        // tx id with a pending write; 0 = none
	deleted     bool         // pending delete by owner
}

// visible returns the version of the row the transaction may read, or nil.
func (s *rowSlot) visible(txID int64) sqltypes.Row {
	if s.owner != 0 && s.owner == txID {
		if s.deleted {
			return nil
		}
		if s.uncommitted != nil {
			return s.uncommitted
		}
		return s.committed
	}
	return s.committed
}

// retire empties a slot that has left the table, so a scan entry taken
// before that finds no row behind it.
func (s *rowSlot) retire() {
	s.committed, s.uncommitted, s.owner, s.deleted = nil, nil, 0, false
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

func (ix *secondaryIndex) keyOf(row sqltypes.Row, rowID int64) btree.Key {
	key := make(btree.Key, len(ix.cols)+1)
	for i, c := range ix.cols {
		key[i] = row[c]
	}
	key[len(ix.cols)] = sqltypes.NewInt(rowID)
	return key
}

// sameKey reports whether two versions of a row share their entry.
func (ix *secondaryIndex) sameKey(a, b sqltypes.Row) bool {
	for _, c := range ix.cols {
		if sqltypes.Compare(a[c], b[c]) != 0 {
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

func (t *Table) pkKeyOf(row sqltypes.Row) (btree.Key, error) {
	key := make(btree.Key, len(t.pkCols))
	for i, c := range t.pkCols {
		if row[c].IsNull() {
			return nil, fmt.Errorf("%w: table %s", ErrNullPK, t.name)
		}
		key[i] = row[c]
	}
	return key, nil
}

// HasIndexOn reports whether a secondary index exists whose first column
// is the given schema position, returning its name.
func (t *Table) HasIndexOn(col int) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for name, ix := range t.indexes {
		if ix.cols[0] == col {
			return name, true
		}
	}
	return "", false
}

// ScanEntry is one visible row surfaced by a scan, with the handle Tx.Update,
// Tx.Delete and Tx.Lock need to reach it again.
type ScanEntry struct {
	Row  sqltypes.Row
	slot *rowSlot
}

// visit adapts a scan callback to the trees' values: it passes on the rows
// the transaction may see.
func visit(txID int64, fn func(ScanEntry) bool) func(*rowSlot) bool {
	return func(slot *rowSlot) bool {
		row := slot.visible(txID)
		return row == nil || fn(ScanEntry{Row: row, slot: slot})
	}
}

// Scan visits every visible row in primary-key order until fn returns
// false.
func (t *Table) Scan(txID int64, fn func(ScanEntry) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.pk.Ascend(visit(txID, fn))
}

// PKRange visits visible rows with lo <= pk <= hi in key order. Nil bounds
// are open, and a bound of fewer columns than the key stands for every key
// it is a prefix of (btree.AscendRange).
func (t *Table) PKRange(txID int64, lo, hi btree.Key, fn func(ScanEntry) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.pk.AscendRange(lo, hi, visit(txID, fn))
}

// PKGet returns the visible row with the given primary key.
func (t *Table) PKGet(txID int64, key btree.Key) (ScanEntry, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	slot, ok := t.pk.Get(key)
	if !ok {
		return ScanEntry{}, false
	}
	row := slot.visible(txID)
	return ScanEntry{Row: row, slot: slot}, row != nil
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
	ix.tree.AscendRange(lo, hi, visit(txID, fn))
	return nil
}

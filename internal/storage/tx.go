package storage

import (
	"fmt"
	"slices"
	"sync"

	"shardingsphere/internal/sqltypes"
)

// txState is the lifecycle state of a transaction.
type txState uint8

const (
	txActive txState = iota
	txPrepared
	txCommitted
	txAborted
)

// undo is one write of a transaction, entered before the write changes its
// row: the row's pending version and delete flag as they were, and whether
// this write was the transaction's first touch of the row. The log is in
// write order; its first touches are the rows the transaction finalizes.
type undo struct {
	table   *Table
	slot    *rowSlot
	prior   string // slot.uncommitted before the write
	deleted bool   // slot.deleted() before the write
	first   bool
}

// Tx is one local transaction on an Engine. A Tx is used by a single
// session goroutine; the engine's internal structures handle cross-
// transaction concurrency.
type Tx struct {
	id     int64
	engine *Engine

	mu     sync.Mutex
	state  txState
	log    []undo
	locked []lockKey
	// logBuf holds the first writes' entries: most transactions write a
	// row or two per source, and their log costs no allocation.
	logBuf [2]undo
}

// ID returns the transaction id (unique per engine).
func (tx *Tx) ID() int64 { return tx.id }

// noteLock records an acquired row lock for release at completion.
func (tx *Tx) noteLock(key lockKey) {
	tx.mu.Lock()
	tx.locked = append(tx.locked, key)
	tx.mu.Unlock()
}

// own makes the transaction the owner of a row it is about to write and
// logs the row's state before the write. Caller holds t.mu and the row
// lock.
func (tx *Tx) own(t *Table, slot *rowSlot) {
	u := undo{table: t, slot: slot, prior: slot.uncommitted, deleted: slot.deleted(), first: slot.ownedBy() != tx.id}
	slot.owner = tx.id<<1 | slot.owner&1
	tx.mu.Lock()
	tx.log = append(tx.log, u)
	tx.mu.Unlock()
}

// Savepoint returns a mark of the transaction's writes so far, which
// RollbackTo returns to.
func (tx *Tx) Savepoint() int {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	return len(tx.log)
}

// RollbackTo undoes the writes made since Savepoint returned sp, newest
// first: a row first touched since then goes back to its committed state
// (or out of the table), any other row to the pending version it had at
// sp, index entries with it. The rows stay locked until the transaction
// ends.
func (tx *Tx) RollbackTo(sp int) error {
	if err := tx.checkActive(); err != nil {
		return err
	}
	tx.mu.Lock()
	if sp < 0 || sp > len(tx.log) {
		tx.mu.Unlock()
		return fmt.Errorf("storage: savepoint %d is past the transaction's %d writes", sp, len(tx.log))
	}
	log := tx.log[sp:]
	tx.log = tx.log[:sp]
	tx.mu.Unlock()
	for i := len(log) - 1; i >= 0; {
		t := log[i].table
		t.mu.Lock()
		for ; i >= 0 && log[i].table == t; i-- {
			t.restore(tx.id, log[i])
		}
		t.mu.Unlock()
	}
	clear(log)
	return nil
}

// restore returns the row u logged to its state before u's write, unless
// it has left the table (a TRUNCATE). Caller holds t.mu.
func (t *Table) restore(txID int64, u undo) {
	slot := u.slot
	switch {
	case slot.ownedBy() != txID:
	case u.first:
		t.rollbackSlot(slot)
	default:
		if slot.uncommitted != "" && !slot.deleted() {
			t.removeVersionEntries(slot.uncommitted, slot.committed, slot)
		}
		slot.uncommitted = u.prior
		slot.setDeleted(u.deleted)
		if u.prior != "" && !u.deleted {
			t.addVersionEntries(u.prior, slot.committed, slot)
		}
	}
}

func (tx *Tx) checkActive() error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	switch tx.state {
	case txActive:
		return nil
	case txPrepared:
		return ErrTxPrepared
	default:
		return ErrTxFinished
	}
}

// checkRow coerces a row about to be stored to the table's kinds
// (sqltypes.Coerce) in place, so a column holds its own kind or NULL, and
// validates it. Caller holds t.mu.
func (t *Table) checkRow(row sqltypes.Row) error {
	for i, col := range t.schema {
		if row[i].Kind != col.Type && !row[i].IsNull() {
			v, err := sqltypes.Coerce(row[i], col.Type)
			if err != nil {
				return fmt.Errorf("%w: %s.%s", err, t.name, col.Name)
			}
			row[i] = v
		}
		if t.notNull[i] && row[i].IsNull() {
			return fmt.Errorf("%w: %s.%s", ErrNotNullColumn, t.name, col.Name)
		}
	}
	return nil
}

// Insert adds a row to the table. It stores the row as one record and
// changes the caller's row to what it stored: a NULL in the auto-increment
// column becomes the next sequence value, and every value its column's kind
// (checkRow). The row is returned.
func (tx *Tx) Insert(t *Table, row sqltypes.Row) (sqltypes.Row, error) {
	if err := tx.checkActive(); err != nil {
		return nil, err
	}
	if len(row) != len(t.schema) {
		return nil, fmt.Errorf("%w: table %s wants %d columns, got %d",
			ErrColumnCount, t.name, len(t.schema), len(row))
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.autoCol >= 0 && row[t.autoCol].IsNull() {
		row[t.autoCol] = sqltypes.NewInt(t.autoInc + 1)
	}
	if err := t.checkRow(row); err != nil {
		return nil, err
	}
	if t.autoCol >= 0 {
		t.autoInc = max(t.autoInc, row[t.autoCol].AsInt())
	}
	rec := encode(row)
	var buf keyBuf
	pkKey, err := t.pkKeyOf(&buf, rec)
	if err != nil {
		return nil, err
	}
	if slot, ok := t.pk.Get(pkKey); ok {
		// Re-insert of a row this transaction deleted: revive it in place.
		if slot.ownedBy() == tx.id && slot.deleted() {
			tx.own(t, slot)
			slot.setDeleted(false)
			slot.uncommitted = rec
			t.addVersionEntries(rec, slot.committed, slot)
			return row, nil
		}
		// The clone keeps buf off the heap on the path that succeeds.
		return nil, fmt.Errorf("%w: table %s key %v", ErrDuplicateKey, t.name, slices.Clone(pkKey))
	}
	t.rowSeq++
	slot := &rowSlot{id: t.rowSeq, uncommitted: rec}
	t.pk.Set(pkKey, slot)
	t.addVersionEntries(rec, "", slot)
	// The row is brand new, so the lock is uncontended; register it
	// directly rather than going through the wait queue.
	key := lockKey{t, slot.id}
	tx.engine.locks.mu.Lock()
	tx.engine.locks.locks[key] = &lockState{owner: tx.id}
	tx.engine.locks.mu.Unlock()
	tx.noteLock(key)
	tx.own(t, slot)
	return row, nil
}

// lock takes the write lock of the row behind a scan entry of table t, then
// latch (t.mu or its read side), which the caller releases, and returns the
// version tx sees ("": gone).
func (tx *Tx) lock(t *Table, se ScanEntry, latch sync.Locker) (string, error) {
	if err := tx.checkActive(); err != nil {
		return "", err
	}
	if err := tx.engine.locks.acquire(tx, lockKey{t, se.slot.id}, tx.engine.lockTimeout); err != nil {
		return "", err
	}
	latch.Lock()
	return se.slot.visible(tx.id), nil
}

// Update locks the row behind a scan entry of table t and, under one hold
// of the table latch, stores what set returns for the version tx then sees,
// cur, which is decoded into buf (grown if it is too short). set only
// evaluates: it must not modify cur, and its row, coerced to the table's
// kinds in place, is stored; its primary key must still be cur's. Update
// returns false if the row is gone or set returns nil.
func (tx *Tx) Update(t *Table, se ScanEntry, buf sqltypes.Row, set func(cur sqltypes.Row) (sqltypes.Row, error)) (bool, error) {
	rec, err := tx.lock(t, se, &t.mu)
	if err != nil {
		return false, err
	}
	defer t.mu.Unlock()
	if rec == "" {
		return false, nil
	}
	cur := decode(rec, len(t.schema), buf[:0])
	newRow, err := set(cur)
	if newRow == nil || err != nil {
		return false, err
	}
	if len(newRow) != len(t.schema) {
		return false, fmt.Errorf("%w: table %s wants %d columns, got %d",
			ErrColumnCount, t.name, len(t.schema), len(newRow))
	}
	if err := t.checkRow(newRow); err != nil {
		return false, err
	}
	for _, c := range t.pkCols {
		if !sqltypes.Equal(cur[c], newRow[c]) {
			return false, fmt.Errorf("%w: %s.%s", ErrPKUpdate, t.name, t.schema[c].Name)
		}
	}
	rec = encode(newRow)
	slot := se.slot
	tx.own(t, slot)
	if slot.uncommitted != "" {
		t.removeVersionEntries(slot.uncommitted, slot.committed, slot)
	}
	slot.setDeleted(false)
	slot.uncommitted = rec
	t.addVersionEntries(rec, slot.committed, slot)
	return true, nil
}

// Lock acquires the row's write lock without modifying it (SELECT ...
// FOR UPDATE), so later reads in the transaction see the latest committed
// version. It returns false if the row vanished before the lock was
// granted.
func (tx *Tx) Lock(t *Table, se ScanEntry) (bool, error) {
	rec, err := tx.lock(t, se, t.mu.RLocker())
	if err == nil {
		t.mu.RUnlock()
	}
	return rec != "", err
}

// Delete locks the row behind a scan entry of table t and deletes it if
// match, which only evaluates, accepts the version tx then sees, under one
// hold of the table latch; that version is decoded into buf (grown if it
// is too short). It returns false if the row is gone or rejected.
func (tx *Tx) Delete(t *Table, se ScanEntry, buf sqltypes.Row, match func(cur sqltypes.Row) (bool, error)) (bool, error) {
	rec, err := tx.lock(t, se, &t.mu)
	if err != nil {
		return false, err
	}
	defer t.mu.Unlock()
	if rec == "" {
		return false, nil
	}
	if ok, err := match(decode(rec, len(t.schema), buf[:0])); !ok || err != nil {
		return false, err
	}
	slot := se.slot
	tx.own(t, slot)
	if slot.uncommitted != "" {
		t.removeVersionEntries(slot.uncommitted, slot.committed, slot)
	}
	if slot.committed != "" {
		// A row this transaction inserted keeps its pending version, which
		// drop reads the primary key from; it has no index entries now.
		slot.uncommitted = ""
	}
	slot.setDeleted(true)
	return true, nil
}

// Commit makes the transaction's writes durable and visible.
func (tx *Tx) Commit() error { return tx.finish(txCommitted) }

// Rollback discards the transaction's writes.
func (tx *Tx) Rollback() error { return tx.finish(txAborted) }

// finish takes an active transaction to its final state.
func (tx *Tx) finish(final txState) error {
	tx.mu.Lock()
	if st := tx.state; st != txActive {
		tx.mu.Unlock()
		if st == txPrepared {
			return ErrTxPrepared
		}
		return ErrTxFinished
	}
	tx.state = final
	tx.mu.Unlock()
	tx.apply(final == txCommitted)
	return nil
}

// apply finalizes every written slot and releases the row locks.
func (tx *Tx) apply(commit bool) {
	// A statement touches one table, so each run of writes to the same table
	// takes that table's latch once.
	for i := 0; i < len(tx.log); {
		t := tx.log[i].table
		t.mu.Lock()
		for ; i < len(tx.log) && tx.log[i].table == t; i++ {
			switch slot := tx.log[i].slot; {
			case !tx.log[i].first:
			case slot.ownedBy() != tx.id: // truncated away meanwhile
			case commit:
				t.commitSlot(slot)
			default:
				t.rollbackSlot(slot)
			}
		}
		t.mu.Unlock()
	}
	tx.engine.locks.releaseAll(tx.locked, tx.id)
	tx.locked = nil
	tx.log = nil
}

// commitSlot promotes the pending version. Caller holds t.mu.
func (t *Table) commitSlot(slot *rowSlot) {
	switch {
	case slot.deleted():
		t.drop(slot)
	case slot.uncommitted != "":
		if slot.committed != "" {
			t.removeVersionEntries(slot.committed, slot.uncommitted, slot)
		}
		slot.committed = slot.uncommitted
		slot.uncommitted = ""
		slot.owner = 0
	default:
		slot.owner = 0
	}
}

// rollbackSlot discards the pending version; a row the transaction itself
// inserted has no committed version and goes altogether. Caller holds t.mu.
func (t *Table) rollbackSlot(slot *rowSlot) {
	if slot.committed == "" {
		t.drop(slot)
		return
	}
	if slot.uncommitted != "" {
		t.removeVersionEntries(slot.uncommitted, slot.committed, slot)
	}
	slot.uncommitted = ""
	slot.owner = 0
}

// drop takes a row out of the table: its index entries, its primary-key
// entry, and the versions a stale scan entry could still reach. Every
// version has the row's primary key; a pending delete's has no entries.
func (t *Table) drop(slot *rowSlot) {
	version := slot.committed
	if version != "" {
		t.removeVersionEntries(version, "", slot)
	}
	if slot.uncommitted != "" {
		if !slot.deleted() {
			t.removeVersionEntries(slot.uncommitted, "", slot)
		}
		version = slot.uncommitted
	}
	var buf keyBuf
	key, _ := t.pkKeyOf(&buf, version) // stored, so not NULL
	t.pk.Delete(key)
	slot.retire()
}

// addVersionEntries adds secondary-index entries for version rec of the
// row, skipping indexes where an existing version ("": none) already has
// the same entry.
func (t *Table) addVersionEntries(rec, existing string, slot *rowSlot) {
	var buf keyBuf
	n := len(t.schema)
	for _, ix := range t.indexes {
		if existing == "" || !ix.sameKey(existing, rec, n) {
			ix.tree.Set(ix.keyOf(&buf, rec, n, slot.id), slot)
		}
	}
}

// removeVersionEntries removes secondary-index entries for version victim,
// keeping entries still needed by survivor ("": none).
func (t *Table) removeVersionEntries(victim, survivor string, slot *rowSlot) {
	var buf keyBuf
	n := len(t.schema)
	for _, ix := range t.indexes {
		if survivor == "" || !ix.sameKey(survivor, victim, n) {
			ix.tree.Delete(ix.keyOf(&buf, victim, n, slot.id))
		}
	}
}

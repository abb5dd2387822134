package storage

import "shardingsphere/internal/sqltypes"

// lockWaiters returns how many transactions queue for the lock of the row
// behind se, so a test can tell a writer is blocked without sleeping.
func (e *Engine) lockWaiters(t *Table, se ScanEntry) int {
	e.locks.mu.Lock()
	defer e.locks.mu.Unlock()
	if st, ok := e.locks.locks[lockKey{t, se.slot.id}]; ok {
		return len(st.waiters)
	}
	return 0
}

// row decodes the entry's row into a fresh slice.
func (se ScanEntry) row() sqltypes.Row { return se.Decode(nil) }

package transaction

import (
	"sync"
	"time"
)

// xidOf returns a transaction's global id.
func xidOf(tx Tx) string {
	switch t := tx.(type) {
	case *xaTx:
		return t.xid
	case *baseTx:
		return t.xid
	}
	return ""
}

// status reports a global transaction's state.
func (tc *Coordinator) status(xid string) (GlobalStatus, bool) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	g, ok := tc.globals[xid]
	if !ok {
		return StatusActive, false
	}
	return g.Status, true
}

// durableLog models a write-ahead log with a physical sync cost: every
// WriteBatch/Delete — batched or not — serializes on one "device" and pays
// syncDelay once, the way a real XA log pays an fsync per decision-point
// write. The group-commit test wraps the memory log in it so the group
// committer's amortization (N records, one sync) shows against the
// per-transaction path (N records, N syncs).
type durableLog struct {
	inner LogStore
	delay time.Duration
	mu    sync.Mutex
}

// newDurableLog wraps inner with a serialized per-operation sync delay.
func newDurableLog(inner LogStore, syncDelay time.Duration) LogStore {
	return &durableLog{inner: inner, delay: syncDelay}
}

func (l *durableLog) sync(op func() error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	time.Sleep(l.delay)
	return op()
}

func (l *durableLog) WriteBatch(recs []LogRecord) error {
	return l.sync(func() error { return l.inner.WriteBatch(recs) })
}

func (l *durableLog) Delete(xid string) error {
	return l.sync(func() error { return l.inner.Delete(xid) })
}

func (l *durableLog) DeleteBatch(xids []string) error {
	return l.sync(func() error { return l.inner.DeleteBatch(xids) })
}

func (l *durableLog) List() ([]LogRecord, error) { return l.inner.List() }

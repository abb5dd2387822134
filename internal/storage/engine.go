package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"shardingsphere/internal/btree"
	"shardingsphere/internal/sqltypes"
)

// DefaultLockTimeout bounds lock waits; deadlocked transactions fail with
// ErrLockTimeout after this long.
const DefaultLockTimeout = 2 * time.Second

// TableSpec describes a table to create.
type TableSpec struct {
	Name          string
	Schema        sqltypes.Schema
	PrimaryKey    []string // column names; must be non-empty
	AutoIncrement string   // optional column name
	NotNull       []string // optional column names
}

// IndexSpec describes a secondary index to create.
type IndexSpec struct {
	Name    string
	Table   string
	Columns []string
}

// Engine is one independent database instance: the unit the paper calls a
// "data source". All methods are safe for concurrent use.
type Engine struct {
	name string

	mu     sync.RWMutex
	tables map[string]*Table
	closed bool
	// ddl counts schema changes (tables created or dropped, indexes
	// created); see DDLEpoch.
	ddl atomic.Uint64

	txSeq       atomic.Int64
	locks       *lockManager
	lockTimeout time.Duration

	prepMu   sync.Mutex
	prepared map[string]*Tx
}

// NewEngine returns an empty engine named name.
func NewEngine(name string) *Engine {
	return &Engine{
		name:        name,
		tables:      map[string]*Table{},
		locks:       newLockManager(),
		lockTimeout: DefaultLockTimeout,
		prepared:    map[string]*Tx{},
	}
}

// Name returns the engine (data source) name.
func (e *Engine) Name() string { return e.name }

// SetLockTimeout overrides the lock-wait timeout; tests use short values.
func (e *Engine) SetLockTimeout(d time.Duration) { e.lockTimeout = d }

// DDLEpoch changes whenever a table is created or dropped or an index is
// created. A query processor that caches anything derived from table
// definitions (resolved tables, access paths) compares the epoch it
// compiled under with the current one and recompiles on a mismatch.
func (e *Engine) DDLEpoch() uint64 { return e.ddl.Load() }

// CreateTable creates a table from the spec.
func (e *Engine) CreateTable(spec TableSpec) error {
	if len(spec.PrimaryKey) == 0 {
		return fmt.Errorf("storage: table %s needs a primary key", spec.Name)
	}
	t := &Table{
		name:    spec.Name,
		schema:  spec.Schema,
		autoCol: -1,
		notNull: make([]bool, len(spec.Schema)),
		pk:      btree.New[*rowSlot](),
		indexes: map[string]*secondaryIndex{},
	}
	for _, col := range spec.PrimaryKey {
		i := spec.Schema.Index(col)
		if i < 0 {
			return fmt.Errorf("storage: pk column %q not in schema of %s", col, spec.Name)
		}
		t.pkCols = append(t.pkCols, i)
		t.notNull[i] = true
	}
	if spec.AutoIncrement != "" {
		i := spec.Schema.Index(spec.AutoIncrement)
		if i < 0 {
			return fmt.Errorf("storage: auto-increment column %q not in schema of %s", spec.AutoIncrement, spec.Name)
		}
		t.autoCol = i
		// Auto-increment values are assigned before NOT NULL checks run.
		t.notNull[i] = false
	}
	for _, col := range spec.NotNull {
		i := spec.Schema.Index(col)
		if i < 0 {
			return fmt.Errorf("storage: not-null column %q not in schema of %s", col, spec.Name)
		}
		t.notNull[i] = true
	}
	t.define()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrEngineClosed
	}
	if _, exists := e.tables[spec.Name]; exists {
		return fmt.Errorf("%w: %s", ErrTableExists, spec.Name)
	}
	e.tables[spec.Name] = t
	e.ddl.Add(1)
	return nil
}

// CreateIndex adds a secondary index over existing rows.
func (e *Engine) CreateIndex(spec IndexSpec) error {
	t, err := e.Table(spec.Table)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, exists := t.indexes[spec.Name]; exists {
		return fmt.Errorf("%w: %s.%s", ErrIndexExists, spec.Table, spec.Name)
	}
	ix := &secondaryIndex{name: spec.Name, tree: btree.New[*rowSlot]()}
	for _, col := range spec.Columns {
		i := t.schema.Index(col)
		if i < 0 {
			return fmt.Errorf("storage: index column %q not in schema of %s", col, spec.Table)
		}
		ix.cols = append(ix.cols, i)
	}
	t.pk.Ascend(func(slot *rowSlot) bool {
		for _, row := range []sqltypes.Row{slot.committed, slot.uncommitted} {
			if row != nil {
				ix.tree.Set(ix.keyOf(row, slot.id), slot)
			}
		}
		return true
	})
	t.indexes[spec.Name] = ix
	t.define()
	e.ddl.Add(1)
	return nil
}

// DropTable removes a table.
func (e *Engine) DropTable(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.tables[name]; !ok {
		return fmt.Errorf("%w: %s", ErrTableNotFound, name)
	}
	delete(e.tables, name)
	e.ddl.Add(1)
	return nil
}

// Truncate removes all rows of a table, bypassing transactions (DDL-like,
// as in SQL TRUNCATE).
func (e *Engine) Truncate(name string) error {
	t, err := e.Table(name)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Scan entries and open transactions may still hold the rows.
	t.pk.Ascend(func(slot *rowSlot) bool {
		slot.retire()
		return true
	})
	t.pk = btree.New[*rowSlot]()
	for _, ix := range t.indexes {
		ix.tree = btree.New[*rowSlot]()
	}
	return nil
}

// Table returns the named table.
func (e *Engine) Table(name string) (*Table, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s (engine %s)", ErrTableNotFound, name, e.name)
	}
	return t, nil
}

// HasTable reports whether the table exists.
func (e *Engine) HasTable(name string) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	_, ok := e.tables[name]
	return ok
}

// TableNames returns the sorted table names.
func (e *Engine) TableNames() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.tables))
	for n := range e.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Begin starts a transaction.
func (e *Engine) Begin() *Tx {
	return &Tx{id: e.txSeq.Add(1), engine: e}
}

// --- XA support (paper Section IV-B, Fig. 5(c)) ---

// Prepare moves the transaction into the prepared state under the given
// XID. A prepared transaction keeps its locks and pending writes until
// CommitPrepared or RollbackPrepared, surviving the loss of the
// coordinator's in-memory state.
func (e *Engine) Prepare(tx *Tx, xid string) error {
	e.prepMu.Lock()
	defer e.prepMu.Unlock()
	if _, dup := e.prepared[xid]; dup {
		return fmt.Errorf("%w: %s", ErrXIDExists, xid)
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.state != txActive {
		return ErrTxFinished
	}
	tx.state = txPrepared
	tx.xid = xid
	e.prepared[xid] = tx
	return nil
}

// CommitPrepared commits a prepared transaction. Committing an unknown XID
// is an error, letting the coordinator distinguish "already completed" from
// "never prepared" during recovery.
func (e *Engine) CommitPrepared(xid string) error {
	tx, err := e.takePrepared(xid)
	if err != nil {
		return err
	}
	tx.mu.Lock()
	tx.state = txCommitted
	tx.mu.Unlock()
	tx.apply(true)
	return nil
}

// RollbackPrepared rolls back a prepared transaction.
func (e *Engine) RollbackPrepared(xid string) error {
	tx, err := e.takePrepared(xid)
	if err != nil {
		return err
	}
	tx.mu.Lock()
	tx.state = txAborted
	tx.mu.Unlock()
	tx.apply(false)
	return nil
}

func (e *Engine) takePrepared(xid string) (*Tx, error) {
	e.prepMu.Lock()
	defer e.prepMu.Unlock()
	tx, ok := e.prepared[xid]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrXIDNotFound, xid)
	}
	delete(e.prepared, xid)
	return tx, nil
}

// RecoverPrepared lists the XIDs of in-doubt transactions, as XA RECOVER
// does; the transaction manager uses it after a coordinator restart.
func (e *Engine) RecoverPrepared() []string {
	e.prepMu.Lock()
	defer e.prepMu.Unlock()
	xids := make([]string, 0, len(e.prepared))
	for xid := range e.prepared {
		xids = append(xids, xid)
	}
	sort.Strings(xids)
	return xids
}

// Close marks the engine closed. Outstanding transactions may still finish.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
}

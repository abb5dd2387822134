package transaction

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"shardingsphere/internal/exec"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/rewrite"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/telemetry"
)

// GlobalStatus is the TC-side state of a BASE global transaction.
type GlobalStatus uint8

// Global transaction states.
const (
	StatusActive GlobalStatus = iota
	StatusCommitted
	StatusRolledBack
)

func (s GlobalStatus) String() string {
	switch s {
	case StatusCommitted:
		return "committed"
	case StatusRolledBack:
		return "rolled-back"
	default:
		return "active"
	}
}

// UndoRecord is one compensation step: SQL that reverses one branch
// statement on one data source.
type UndoRecord struct {
	DataSource string
	SQL        string
}

// GlobalTx is the coordinator's record of one BASE transaction: its
// branches and their undo logs, in execution order.
type GlobalTx struct {
	Status GlobalStatus
	Undo   []UndoRecord
}

// Coordinator is the Transaction Coordinator (TC) of the Seata-style AT
// flow (paper Fig. 5(e)/Fig. 6): it tracks global transactions, the
// branches registered to them, and drives global commit/rollback. It is
// the in-process substitute for a Seata TC server (see DESIGN.md).
type Coordinator struct {
	mu      sync.Mutex
	globals map[string]*GlobalTx
}

// NewCoordinator returns an empty TC.
func NewCoordinator() *Coordinator {
	return &Coordinator{globals: map[string]*GlobalTx{}}
}

// BeginGlobal registers a new global transaction.
func (tc *Coordinator) BeginGlobal(xid string) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.globals[xid] = &GlobalTx{}
}

// RegisterUndo appends a compensation record to the global transaction.
func (tc *Coordinator) RegisterUndo(xid string, rec UndoRecord) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if g, ok := tc.globals[xid]; ok {
		g.Undo = append(g.Undo, rec)
	}
}

// finish transitions the transaction and returns its undo list (for
// rollback) while holding the record.
func (tc *Coordinator) finish(xid string, to GlobalStatus) ([]UndoRecord, error) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	g, ok := tc.globals[xid]
	if !ok {
		return nil, fmt.Errorf("transaction: unknown global transaction %s", xid)
	}
	if g.Status != StatusActive {
		return nil, ErrTxClosed
	}
	g.Status = to
	undo := g.Undo
	g.Undo = nil // phase 2: undo logs are deleted
	return undo, nil
}

// --- BASE transaction ---

type baseTx struct {
	mgr    *Manager
	xid    string
	held   *exec.HeldConns
	closed bool
	tr     *telemetry.Trace
	// pending holds compensations computed before the statement ran,
	// applied to the TC once the statement (and its local commit) succeed.
	pending []UndoRecord
	inLocal map[string]bool
}

func (t *baseTx) Held() *exec.HeldConns           { return t.held }
func (t *baseTx) AttachTrace(tr *telemetry.Trace) { t.tr = tr }

// BeforeStatement opens a branch-local transaction on every touched
// source and computes the compensation SQL from the current row images
// (the "save the redo and undo logs" step of paper Fig. 6).
func (t *baseTx) BeforeStatement(ctx context.Context, units []rewrite.SQLUnit) error {
	if t.closed {
		return ErrTxClosed
	}
	undoStart := time.Now()
	t.pending = t.pending[:0]
	t.inLocal = map[string]bool{}
	for _, u := range units {
		conn, err := t.held.Get(ctx, t.mgr.exec, u.DataSource)
		if err == nil && !t.inLocal[u.DataSource] {
			if _, err = conn.Exec(ctx, "BEGIN"); err == nil {
				t.inLocal[u.DataSource] = true
			}
		}
		if err != nil {
			t.abortLocals(ctx)
			return err
		}
		undo, err := t.buildUndo(ctx, conn, u)
		if err != nil {
			t.abortLocals(ctx)
			return err
		}
		t.pending = append(t.pending, undo...)
	}
	t.tr.AddSpan(telemetry.StageBaseUndo, "", undoStart, time.Since(undoStart))
	return nil
}

// AfterStatement commits each branch-local transaction (phase 1 of Fig.
// 6: "commit locally, report status to TC") and registers the undo
// records with the TC; on execution error the local work rolls back and
// no undo is kept. Either way the statement's connections go back to
// their pools: a branch holds nothing between statements, so a connection
// lost in one statement costs the next nothing.
func (t *baseTx) AfterStatement(ctx context.Context, units []rewrite.SQLUnit, execErr error) error {
	if execErr != nil {
		t.abortLocals(ctx)
		return nil
	}
	for ds := range t.inLocal {
		conn, _ := t.held.Peek(ds)
		if _, err := conn.Exec(ctx, "COMMIT"); err != nil {
			conn.Broken = true
			t.abortLocals(ctx)
			return fmt.Errorf("transaction: BASE local commit failed on %s: %w", ds, err)
		}
	}
	for _, rec := range t.pending {
		t.mgr.tc.RegisterUndo(t.xid, rec)
	}
	t.pending = nil
	t.inLocal = nil
	t.held.ReleaseAll()
	return nil
}

// abortLocals rolls the statement's branch-local transactions back and
// returns their connections.
func (t *baseTx) abortLocals(ctx context.Context) {
	// Branch aborts must run even after the statement deadline fired, or
	// the local transactions would leak their locks back into the pool.
	ctx = context.WithoutCancel(ctx)
	for ds := range t.inLocal {
		if conn, ok := t.held.Peek(ds); ok {
			if _, err := conn.Exec(ctx, "ROLLBACK"); err != nil {
				conn.Broken = true
			}
		}
	}
	t.held.ReleaseAll()
	t.pending = nil
	t.inLocal = nil
}

// Commit checks status with the TC and deletes the undo logs (phase 2 of
// Fig. 6). Local data is already committed, so this is fast.
func (t *baseTx) Commit(context.Context) error {
	if t.closed {
		return ErrTxClosed
	}
	t.closed = true
	defer t.held.ReleaseAll()
	_, err := t.mgr.tc.finish(t.xid, StatusCommitted)
	return err
}

// Rollback restores data by replaying the compensation SQL in reverse
// order ("restore the data by redo and undo logs").
func (t *baseTx) Rollback(ctx context.Context) error {
	if t.closed {
		return ErrTxClosed
	}
	t.closed = true
	defer t.held.ReleaseAll()
	undo, err := t.mgr.tc.finish(t.xid, StatusRolledBack)
	if err != nil {
		return err
	}
	// Compensation must run to completion once started: a half-replayed
	// undo chain is worse than a late one, so it detaches from the
	// statement deadline.
	ctx = context.WithoutCancel(ctx)
	for i := len(undo) - 1; i >= 0; i-- {
		rec := undo[i]
		conn, err := t.held.Get(ctx, t.mgr.exec, rec.DataSource)
		if err != nil {
			return fmt.Errorf("transaction: BASE compensation lost on %s: %w", rec.DataSource, err)
		}
		if _, err := conn.Exec(ctx, rec.SQL); err != nil {
			return fmt.Errorf("transaction: BASE compensation failed on %s (%s): %w", rec.DataSource, rec.SQL, err)
		}
	}
	return nil
}

// buildUndo computes compensation SQL for one unit by reading the row
// images the statement is about to change.
func (t *baseTx) buildUndo(ctx context.Context, conn *resource.PooledConn, u rewrite.SQLUnit) ([]UndoRecord, error) {
	stmt, err := sqlparser.Parse(u.SQL)
	if err != nil {
		return nil, err
	}
	ser := sqlparser.NewSerializer(sqlparser.DialectMySQL)
	switch s := stmt.(type) {
	case *sqlparser.UpdateStmt:
		return t.undoForUpdateDelete(ctx, conn, u.DataSource, s.Table, s.Where, u.Args, ser, false)
	case *sqlparser.DeleteStmt:
		return t.undoForUpdateDelete(ctx, conn, u.DataSource, s.Table, s.Where, u.Args, ser, true)
	case *sqlparser.InsertStmt:
		return t.undoForInsert(u.DataSource, s, u.Args, ser)
	default:
		return nil, nil // reads and DDL carry no undo
	}
}

// undoForUpdateDelete selects the before image (FOR UPDATE, inside the
// branch-local transaction, so the rows stay locked until local commit)
// and emits one restoring statement per row.
func (t *baseTx) undoForUpdateDelete(ctx context.Context, conn *resource.PooledConn, ds, table string, where sqlparser.Expr, args []sqltypes.Value, ser *sqlparser.Serializer, isDelete bool) ([]UndoRecord, error) {
	pk, cols, err := t.mgr.meta.TableMeta(ds, table)
	if err != nil {
		return nil, err
	}
	// The before-image SELECT keeps only the WHERE clause: its text reads the
	// arguments of the placeholders that survive, not an UPDATE's SET values.
	sel := &sqlparser.SelectStmt{
		Items:     []sqlparser.SelectItem{{Star: true}},
		From:      []sqlparser.TableRef{{Name: table}},
		Where:     where,
		ForUpdate: true,
	}
	text, reads := ser.SerializeReads(sel)
	whereArgs := make([]sqltypes.Value, len(reads))
	for i, r := range reads {
		if r >= len(args) {
			return nil, fmt.Errorf("transaction: missing bind argument %d", r+1)
		}
		whereArgs[i] = args[r]
	}
	rs, err := conn.Query(ctx, text, whereArgs...)
	if err != nil {
		return nil, err
	}
	rows, err := resource.ReadAll(rs)
	if err != nil {
		return nil, err
	}
	var out []UndoRecord
	for _, row := range rows {
		if len(row) != len(cols) {
			return nil, fmt.Errorf("transaction: before-image width %d != schema %d for %s", len(row), len(cols), table)
		}
		if isDelete {
			out = append(out, UndoRecord{DataSource: ds, SQL: insertSQL(table, cols, row, ser)})
		} else {
			out = append(out, UndoRecord{DataSource: ds, SQL: updateSQL(table, pk, cols, row, ser)})
		}
	}
	return out, nil
}

// undoForInsert emits one DELETE per inserted row, keyed on the primary
// key values from the statement itself.
func (t *baseTx) undoForInsert(ds string, stmt *sqlparser.InsertStmt, args []sqltypes.Value, ser *sqlparser.Serializer) ([]UndoRecord, error) {
	pk, cols, err := t.mgr.meta.TableMeta(ds, stmt.Table)
	if err != nil {
		return nil, err
	}
	names := stmt.Columns
	if len(names) == 0 {
		names = cols
	}
	pos := map[string]int{}
	for i, c := range names {
		pos[strings.ToLower(c)] = i
	}
	var out []UndoRecord
	for _, row := range stmt.Rows {
		var conds []string
		for _, k := range pk {
			i, ok := pos[strings.ToLower(k)]
			if !ok || i >= len(row) {
				return nil, fmt.Errorf("transaction: BASE INSERT into %s must include primary key %s", stmt.Table, k)
			}
			v, err := constValue(row[i], args)
			if err != nil {
				return nil, err
			}
			conds = append(conds, fmt.Sprintf("%s = %s", k, v.SQLLiteral()))
		}
		out = append(out, UndoRecord{
			DataSource: ds,
			SQL:        fmt.Sprintf("DELETE FROM %s WHERE %s", stmt.Table, strings.Join(conds, " AND ")),
		})
	}
	return out, nil
}

func insertSQL(table string, cols []string, row sqltypes.Row, _ *sqlparser.Serializer) string {
	vals := make([]string, len(row))
	for i, v := range row {
		vals[i] = v.SQLLiteral()
	}
	return fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s)",
		table, strings.Join(cols, ", "), strings.Join(vals, ", "))
}

func updateSQL(table string, pk, cols []string, row sqltypes.Row, _ *sqlparser.Serializer) string {
	isPK := map[string]bool{}
	for _, k := range pk {
		isPK[strings.ToLower(k)] = true
	}
	var sets, conds []string
	for i, c := range cols {
		lit := row[i].SQLLiteral()
		if isPK[strings.ToLower(c)] {
			conds = append(conds, fmt.Sprintf("%s = %s", c, lit))
		} else {
			sets = append(sets, fmt.Sprintf("%s = %s", c, lit))
		}
	}
	if len(sets) == 0 {
		// Pure-key table: nothing to restore on update.
		return fmt.Sprintf("SELECT 1 FROM %s WHERE 1 = 0", table)
	}
	return fmt.Sprintf("UPDATE %s SET %s WHERE %s",
		table, strings.Join(sets, ", "), strings.Join(conds, " AND "))
}

// constValue evaluates a constant INSERT value: a literal, or the unit
// argument its placeholder reads.
func constValue(x sqlparser.Expr, args []sqltypes.Value) (sqltypes.Value, error) {
	switch t := x.(type) {
	case *sqlparser.Literal:
		return t.Val, nil
	case *sqlparser.Placeholder:
		if t.Index >= len(args) {
			return sqltypes.Null, fmt.Errorf("transaction: missing bind argument %d", t.Index+1)
		}
		return args[t.Index], nil
	default:
		return sqltypes.Null, fmt.Errorf("transaction: non-constant INSERT value %T", x)
	}
}

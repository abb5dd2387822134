package storage

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"shardingsphere/internal/btree"
	"shardingsphere/internal/sqltypes"
)

func userSpec() TableSpec {
	return TableSpec{
		Name: "t_user",
		Schema: sqltypes.Schema{
			{Name: "uid", Type: sqltypes.KindInt},
			{Name: "name", Type: sqltypes.KindString},
			{Name: "age", Type: sqltypes.KindInt},
		},
		PrimaryKey: []string{"uid"},
	}
}

func newUserEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine("ds0")
	if err := e.CreateTable(userSpec()); err != nil {
		t.Fatal(err)
	}
	return e
}

func row(uid int64, name string, age int64) sqltypes.Row {
	return sqltypes.Row{sqltypes.NewInt(uid), sqltypes.NewString(name), sqltypes.NewInt(age)}
}

// tab returns the named table, which the test has created.
func tab(e *Engine, name string) *Table {
	t, err := e.Table(name)
	if err != nil {
		panic(err)
	}
	return t
}

func mustInsert(t *testing.T, tx *Tx, table string, r sqltypes.Row) {
	t.Helper()
	if _, err := tx.Insert(tab(tx.engine, table), r); err != nil {
		t.Fatal(err)
	}
}

// setTo is an Update callback that stores a copy of r whatever the row
// holds.
func setTo(r sqltypes.Row) func(sqltypes.Row) (sqltypes.Row, error) {
	return func(sqltypes.Row) (sqltypes.Row, error) { return r.Clone(), nil }
}

// anyRow is a Delete callback that takes every row.
func anyRow(sqltypes.Row) (bool, error) { return true, nil }

func scanAll(e *Engine, table string, txID int64) []sqltypes.Row {
	t, err := e.Table(table)
	if err != nil {
		return nil
	}
	var rows []sqltypes.Row
	t.Scan(txID, func(se ScanEntry) bool {
		rows = append(rows, se.Row)
		return true
	})
	return rows
}

func TestInsertCommitVisible(t *testing.T) {
	e := newUserEngine(t)
	tx := e.Begin()
	mustInsert(t, tx, "t_user", row(1, "alice", 30))
	mustInsert(t, tx, "t_user", row(2, "bob", 25))

	// Before commit: invisible to others, visible to self.
	if got := scanAll(e, "t_user", 0); len(got) != 0 {
		t.Fatalf("uncommitted rows leaked: %v", got)
	}
	if got := scanAll(e, "t_user", tx.ID()); len(got) != 2 {
		t.Fatalf("own writes invisible: %v", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got := scanAll(e, "t_user", 0)
	if len(got) != 2 || got[0][1].S != "alice" || got[1][1].S != "bob" {
		t.Fatalf("committed rows wrong: %v", got)
	}
}

func TestRollbackDiscards(t *testing.T) {
	e := newUserEngine(t)
	tx := e.Begin()
	mustInsert(t, tx, "t_user", row(1, "alice", 30))
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := scanAll(e, "t_user", 0); len(got) != 0 {
		t.Fatalf("rollback leaked rows: %v", got)
	}
	// PK slot must be reusable after rollback.
	tx2 := e.Begin()
	mustInsert(t, tx2, "t_user", row(1, "anna", 22))
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	got := scanAll(e, "t_user", 0)
	if len(got) != 1 || got[0][1].S != "anna" {
		t.Fatalf("reinsert after rollback: %v", got)
	}
}

// A transaction's writes are finalized table by table in the order it
// touched them; going back to an earlier table must finalize those rows too.
func TestInterleavedTables(t *testing.T) {
	for _, commit := range []bool{true, false} {
		e := newUserEngine(t)
		other := userSpec()
		other.Name = "t_other"
		if err := e.CreateTable(other); err != nil {
			t.Fatal(err)
		}
		tx := e.Begin()
		for uid, table := range []string{"t_user", "t_other", "t_user", "t_other", "t_other"} {
			mustInsert(t, tx, table, row(int64(uid), "n", 1))
		}
		want := map[string]int{"t_user": 2, "t_other": 3}
		if commit {
			tx.Commit()
		} else {
			tx.Rollback()
			want = map[string]int{}
		}
		for _, table := range []string{"t_user", "t_other"} {
			if got := len(scanAll(e, table, 0)); got != want[table] {
				t.Errorf("commit=%v: %s has %d rows, want %d", commit, table, got, want[table])
			}
		}
	}
}

func TestDuplicateKey(t *testing.T) {
	e := newUserEngine(t)
	tx := e.Begin()
	mustInsert(t, tx, "t_user", row(1, "alice", 30))
	if _, err := tx.Insert(tab(e, "t_user"), row(1, "dup", 1)); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("want ErrDuplicateKey, got %v", err)
	}
	tx.Commit()
	tx2 := e.Begin()
	if _, err := tx2.Insert(tab(e, "t_user"), row(1, "dup", 1)); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("want ErrDuplicateKey after commit, got %v", err)
	}
	tx2.Rollback()
}

func TestUpdateAndDelete(t *testing.T) {
	e := newUserEngine(t)
	tx := e.Begin()
	mustInsert(t, tx, "t_user", row(1, "alice", 30))
	tx.Commit()

	tbl, _ := e.Table("t_user")
	tx2 := e.Begin()
	se, ok := tbl.PKGet(tx2.ID(), btree.Key{sqltypes.NewInt(1)})
	if !ok {
		t.Fatal("pk get miss")
	}
	updated := se.Row.Clone()
	updated[2] = sqltypes.NewInt(31)
	if ok, err := tx2.Update(tbl, se, setTo(updated)); err != nil || !ok {
		t.Fatalf("update: %v %v", ok, err)
	}
	// Other readers still see age 30 (read committed).
	if got := scanAll(e, "t_user", 0); got[0][2].I != 30 {
		t.Fatalf("dirty read: %v", got)
	}
	tx2.Commit()
	if got := scanAll(e, "t_user", 0); got[0][2].I != 31 {
		t.Fatalf("update lost: %v", got)
	}

	tx3 := e.Begin()
	se, _ = tbl.PKGet(tx3.ID(), btree.Key{sqltypes.NewInt(1)})
	if ok, err := tx3.Delete(tbl, se, anyRow); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if got := scanAll(e, "t_user", tx3.ID()); len(got) != 0 {
		t.Fatalf("delete invisible to self: %v", got)
	}
	if got := scanAll(e, "t_user", 0); len(got) != 1 {
		t.Fatalf("delete visible before commit: %v", got)
	}
	tx3.Commit()
	if got := scanAll(e, "t_user", 0); len(got) != 0 {
		t.Fatalf("delete lost: %v", got)
	}
}

func TestUpdatePKRejected(t *testing.T) {
	e := newUserEngine(t)
	tx := e.Begin()
	mustInsert(t, tx, "t_user", row(1, "alice", 30))
	tx.Commit()
	tbl, _ := e.Table("t_user")
	tx2 := e.Begin()
	se, _ := tbl.PKGet(tx2.ID(), btree.Key{sqltypes.NewInt(1)})
	bad := se.Row.Clone()
	bad[0] = sqltypes.NewInt(99)
	if _, err := tx2.Update(tbl, se, setTo(bad)); !errors.Is(err, ErrPKUpdate) {
		t.Fatalf("want ErrPKUpdate, got %v", err)
	}
	tx2.Rollback()
}

func TestDeleteThenReinsertSameTx(t *testing.T) {
	e := newUserEngine(t)
	tx := e.Begin()
	mustInsert(t, tx, "t_user", row(1, "alice", 30))
	tx.Commit()

	tbl, _ := e.Table("t_user")
	tx2 := e.Begin()
	se, _ := tbl.PKGet(tx2.ID(), btree.Key{sqltypes.NewInt(1)})
	if ok, _ := tx2.Delete(tbl, se, anyRow); !ok {
		t.Fatal("delete failed")
	}
	// Sysbench's read-write transaction deletes a row then reinserts the
	// same id; this must succeed inside one transaction.
	mustInsert(t, tx2, "t_user", row(1, "alice2", 31))
	tx2.Commit()
	got := scanAll(e, "t_user", 0)
	if len(got) != 1 || got[0][1].S != "alice2" {
		t.Fatalf("reinsert same tx: %v", got)
	}
}

func TestInsertThenDeleteSameTx(t *testing.T) {
	e := newUserEngine(t)
	tx := e.Begin()
	mustInsert(t, tx, "t_user", row(7, "ghost", 1))
	tbl, _ := e.Table("t_user")
	se, ok := tbl.PKGet(tx.ID(), btree.Key{sqltypes.NewInt(7)})
	if !ok {
		t.Fatal("own insert invisible")
	}
	if ok, _ := tx.Delete(tbl, se, anyRow); !ok {
		t.Fatal("delete of own insert failed")
	}
	tx.Commit()
	if got := scanAll(e, "t_user", 0); len(got) != 0 {
		t.Fatalf("phantom row: %v", got)
	}
	// PK must be free.
	tx2 := e.Begin()
	mustInsert(t, tx2, "t_user", row(7, "real", 2))
	tx2.Commit()
}

// TestStaleScanEntry: a scan entry outlives the statement's table latch, so
// the row behind it may be gone by the time it is written through — deleted
// by a committed transaction, truncated away, or never committed at all.
// Every write through such an entry reports the row as gone, and a new row
// under the same key is untouched.
func TestStaleScanEntry(t *testing.T) {
	e := newUserEngine(t)
	if err := e.CreateIndex(IndexSpec{Name: "idx_age", Table: "t_user", Columns: []string{"age"}}); err != nil {
		t.Fatal(err)
	}
	tbl := tab(e, "t_user")
	key := btree.Key{sqltypes.NewInt(1)}
	for name, vanish := range map[string]func(se ScanEntry){
		"deleted and committed": func(se ScanEntry) {
			tx := e.Begin()
			if ok, err := tx.Delete(tbl, se, anyRow); !ok || err != nil {
				t.Fatal(ok, err)
			}
			tx.Commit()
		},
		"truncated": func(ScanEntry) { e.Truncate("t_user") },
	} {
		seed := e.Begin()
		mustInsert(t, seed, "t_user", row(1, "old", 30))
		seed.Commit()
		stale, _ := tbl.PKGet(0, key)
		vanish(stale)
		seed = e.Begin()
		mustInsert(t, seed, "t_user", row(1, "new", 30))
		seed.Commit()

		tx := e.Begin()
		if ok, err := tx.Update(tbl, stale, setTo(row(1, "ghost", 30))); ok || err != nil {
			t.Fatalf("%s: update through a stale entry: %v %v", name, ok, err)
		}
		if ok, err := tx.Delete(tbl, stale, anyRow); ok || err != nil {
			t.Fatalf("%s: delete through a stale entry: %v %v", name, ok, err)
		}
		if ok, err := tx.Lock(tbl, stale); ok || err != nil {
			t.Fatalf("%s: lock through a stale entry: %v %v", name, ok, err)
		}
		tx.Commit()
		var names []string
		age := btree.Key{sqltypes.NewInt(30)}
		tbl.IndexRange(0, "idx_age", age, age, func(se ScanEntry) bool {
			names = append(names, se.Row[1].S)
			return true
		})
		if got := scanAll(e, "t_user", 0); len(got) != 1 || got[0][1].S != "new" || len(names) != 1 || names[0] != "new" {
			t.Fatalf("%s: table %v, index %v", name, got, names)
		}
		e.Truncate("t_user")
	}

	// An entry for a row whose insert is rolled back.
	ins := e.Begin()
	mustInsert(t, ins, "t_user", row(2, "never", 1))
	own, ok := tbl.PKGet(ins.ID(), btree.Key{sqltypes.NewInt(2)})
	if !ok {
		t.Fatal("own insert invisible")
	}
	ins.Rollback()
	tx := e.Begin()
	if ok, err := tx.Update(tbl, own, setTo(row(2, "ghost", 1))); ok || err != nil {
		t.Fatalf("update of a rolled-back insert: %v %v", ok, err)
	}
	tx.Commit()
	if got := scanAll(e, "t_user", 0); len(got) != 0 {
		t.Fatalf("rolled-back insert resurfaced: %v", got)
	}
}

func TestAutoIncrement(t *testing.T) {
	e := NewEngine("ds0")
	spec := userSpec()
	spec.AutoIncrement = "uid"
	if err := e.CreateTable(spec); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	r1, err := tx.Insert(tab(e, "t_user"), sqltypes.Row{sqltypes.Null, sqltypes.NewString("a"), sqltypes.NewInt(1)})
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := tx.Insert(tab(e, "t_user"), sqltypes.Row{sqltypes.Null, sqltypes.NewString("b"), sqltypes.NewInt(2)})
	if r1[0].I != 1 || r2[0].I != 2 {
		t.Fatalf("auto inc: %v %v", r1[0], r2[0])
	}
	// Explicit value bumps the sequence.
	tx.Insert(tab(e, "t_user"), row(10, "c", 3))
	r4, _ := tx.Insert(tab(e, "t_user"), sqltypes.Row{sqltypes.Null, sqltypes.NewString("d"), sqltypes.NewInt(4)})
	if r4[0].I != 11 {
		t.Fatalf("auto inc after explicit: %v", r4[0])
	}
	tx.Commit()
}

func TestNotNull(t *testing.T) {
	e := NewEngine("ds0")
	spec := userSpec()
	spec.NotNull = []string{"name"}
	if err := e.CreateTable(spec); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	_, err := tx.Insert(tab(e, "t_user"), sqltypes.Row{sqltypes.NewInt(1), sqltypes.Null, sqltypes.NewInt(1)})
	if !errors.Is(err, ErrNotNullColumn) {
		t.Fatalf("want ErrNotNullColumn, got %v", err)
	}
	tx.Rollback()
}

func TestPKRangeAndGet(t *testing.T) {
	e := newUserEngine(t)
	tx := e.Begin()
	for i := int64(1); i <= 20; i++ {
		mustInsert(t, tx, "t_user", row(i, fmt.Sprintf("u%d", i), i))
	}
	tx.Commit()
	tbl, _ := e.Table("t_user")
	var got []int64
	tbl.PKRange(0, btree.Key{sqltypes.NewInt(5)}, btree.Key{sqltypes.NewInt(8)}, func(se ScanEntry) bool {
		got = append(got, se.Row[0].I)
		return true
	})
	if len(got) != 4 || got[0] != 5 || got[3] != 8 {
		t.Fatalf("pk range: %v", got)
	}
	if _, ok := tbl.PKGet(0, btree.Key{sqltypes.NewInt(100)}); ok {
		t.Fatal("phantom pk get")
	}
}

func TestSecondaryIndex(t *testing.T) {
	e := newUserEngine(t)
	tx := e.Begin()
	for i := int64(1); i <= 10; i++ {
		mustInsert(t, tx, "t_user", row(i, "x", i%3))
	}
	tx.Commit()
	if err := e.CreateIndex(IndexSpec{Name: "idx_age", Table: "t_user", Columns: []string{"age"}}); err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.Table("t_user")
	count := 0
	key := btree.Key{sqltypes.NewInt(1)}
	if err := tbl.IndexRange(0, "idx_age", key, key, func(se ScanEntry) bool {
		if se.Row[2].I != 1 {
			t.Fatalf("index returned wrong row: %v", se.Row)
		}
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 4 { // ages of 1..10 %3==1: 1,4,7,10
		t.Fatalf("index count: %d", count)
	}

	// Index follows updates.
	tx2 := e.Begin()
	se, _ := tbl.PKGet(tx2.ID(), btree.Key{sqltypes.NewInt(1)})
	up := se.Row.Clone()
	up[2] = sqltypes.NewInt(2)
	tx2.Update(tbl, se, setTo(up))
	tx2.Commit()
	count = 0
	tbl.IndexRange(0, "idx_age", key, key, func(se ScanEntry) bool { count++; return true })
	if count != 3 {
		t.Fatalf("index after update: %d", count)
	}

	// Index follows deletes.
	tx3 := e.Begin()
	se, _ = tbl.PKGet(tx3.ID(), btree.Key{sqltypes.NewInt(4)})
	tx3.Delete(tbl, se, anyRow)
	tx3.Commit()
	count = 0
	tbl.IndexRange(0, "idx_age", key, key, func(se ScanEntry) bool { count++; return true })
	if count != 2 {
		t.Fatalf("index after delete: %d", count)
	}
}

func TestIndexRollbackCleansEntries(t *testing.T) {
	e := newUserEngine(t)
	if err := e.CreateIndex(IndexSpec{Name: "idx_age", Table: "t_user", Columns: []string{"age"}}); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	mustInsert(t, tx, "t_user", row(1, "a", 42))
	tx.Rollback()
	tbl, _ := e.Table("t_user")
	count := 0
	key := btree.Key{sqltypes.NewInt(42)}
	tbl.IndexRange(0, "idx_age", key, key, func(ScanEntry) bool { count++; return true })
	if count != 0 {
		t.Fatalf("rolled-back index entries: %d", count)
	}
}

func TestRowLockBlocksSecondWriter(t *testing.T) {
	e := newUserEngine(t)
	e.SetLockTimeout(100 * time.Millisecond)
	tx := e.Begin()
	mustInsert(t, tx, "t_user", row(1, "a", 1))
	tx.Commit()
	tbl, _ := e.Table("t_user")

	tx1 := e.Begin()
	se, _ := tbl.PKGet(tx1.ID(), btree.Key{sqltypes.NewInt(1)})
	up := se.Row.Clone()
	up[2] = sqltypes.NewInt(2)
	if ok, err := tx1.Update(tbl, se, setTo(up)); !ok || err != nil {
		t.Fatal(err)
	}
	// Second writer times out while tx1 holds the lock.
	tx2 := e.Begin()
	up2 := se.Row.Clone()
	up2[2] = sqltypes.NewInt(3)
	if _, err := tx2.Update(tbl, se, setTo(up2)); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("want ErrLockTimeout, got %v", err)
	}
	tx1.Commit()
	// Now it succeeds.
	if ok, err := tx2.Update(tbl, se, setTo(up2)); !ok || err != nil {
		t.Fatalf("after release: %v %v", ok, err)
	}
	tx2.Commit()
	if got := scanAll(e, "t_user", 0); got[0][2].I != 3 {
		t.Fatalf("final: %v", got)
	}
}

// TestConcurrentIncrementsNoLostUpdates: each increment is computed by
// Update's callback on the version the row lock grants, so none is lost.
func TestConcurrentIncrementsNoLostUpdates(t *testing.T) {
	e := newUserEngine(t)
	tx := e.Begin()
	mustInsert(t, tx, "t_user", row(1, "ctr", 0))
	tx.Commit()
	tbl, _ := e.Table("t_user")

	const workers = 8
	const perWorker = 50
	incr := func(cur sqltypes.Row) (sqltypes.Row, error) {
		up := cur.Clone()
		up[2] = sqltypes.NewInt(up[2].I + 1)
		return up, nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx := e.Begin()
				se, ok := tbl.PKGet(tx.ID(), btree.Key{sqltypes.NewInt(1)})
				if !ok {
					tx.Rollback()
					errs <- errors.New("row vanished")
					return
				}
				if ok, err := tx.Update(tbl, se, incr); !ok || err != nil {
					tx.Rollback()
					errs <- fmt.Errorf("increment: %v %v", ok, err)
					return
				}
				tx.Commit()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := scanAll(e, "t_user", 0); got[0][2].I != workers*perWorker {
		t.Fatalf("counter %v, want %d", got[0][2], workers*perWorker)
	}
}

// TestWriteRechecksTheLockedRow: T2 scans a row while it still matches
// WHERE v < 50, then T1 sets v = 100 and commits while T2 waits for the
// row lock. T2's UPDATE (SET k = 7) or DELETE re-evaluates its WHERE on
// the version the lock grants, so it leaves the row as T1 committed it.
func TestWriteRechecksTheLockedRow(t *testing.T) {
	below50 := func(cur sqltypes.Row) (bool, error) { return cur[2].I < 50, nil }
	writes := map[string]func(tx *Tx, tbl *Table, se ScanEntry) (bool, error){
		"update": func(tx *Tx, tbl *Table, se ScanEntry) (bool, error) {
			return tx.Update(tbl, se, func(cur sqltypes.Row) (sqltypes.Row, error) {
				if ok, _ := below50(cur); !ok {
					return nil, nil
				}
				up := cur.Clone()
				up[1] = sqltypes.NewInt(7)
				return up, nil
			})
		},
		"delete": func(tx *Tx, tbl *Table, se ScanEntry) (bool, error) { return tx.Delete(tbl, se, below50) },
	}
	ints := func(vs ...int64) sqltypes.Row {
		r := make(sqltypes.Row, len(vs))
		for i, v := range vs {
			r[i] = sqltypes.NewInt(v)
		}
		return r
	}
	for name, write := range writes {
		e := NewEngine("ds0")
		if err := e.CreateTable(TableSpec{Name: "t", Schema: sqltypes.Schema{
			{Name: "id", Type: sqltypes.KindInt}, {Name: "k", Type: sqltypes.KindInt}, {Name: "v", Type: sqltypes.KindInt},
		}, PrimaryKey: []string{"id"}}); err != nil {
			t.Fatal(err)
		}
		tbl := tab(e, "t")
		seed := e.Begin()
		mustInsert(t, seed, "t", ints(1, 0, 0))
		seed.Commit()

		t2 := e.Begin()
		se, _ := tbl.PKGet(t2.ID(), btree.Key{sqltypes.NewInt(1)})
		if ok, _ := below50(se.Row); !ok {
			t.Fatalf("%s: T2's scan does not match: %v", name, se.Row)
		}
		t1 := e.Begin()
		if ok, err := t1.Update(tbl, se, setTo(ints(1, 0, 100))); !ok || err != nil {
			t.Fatalf("%s: T1: %v %v", name, ok, err)
		}
		type outcome struct {
			ok  bool
			err error
		}
		done := make(chan outcome)
		go func() {
			ok, err := write(t2, tbl, se)
			done <- outcome{ok, err}
		}()
		for e.lockWaiters(tbl, se) != 1 {
			runtime.Gosched()
		}
		t1.Commit()
		if got := <-done; got.ok || got.err != nil {
			t.Fatalf("%s: T2 affected %v, err %v; want no row", name, got.ok, got.err)
		}
		t2.Commit()
		if got := scanAll(e, "t", 0); len(got) != 1 || got[0][1].I != 0 || got[0][2].I != 100 {
			t.Fatalf("%s: table %v, want (1, 0, 100)", name, got)
		}
	}
}

func TestXAPrepareCommit(t *testing.T) {
	e := newUserEngine(t)
	tx := e.Begin()
	mustInsert(t, tx, "t_user", row(1, "a", 1))
	if err := e.Prepare(tx, "xid-1"); err != nil {
		t.Fatal(err)
	}
	// Prepared: still invisible, tx unusable, XID recoverable.
	if got := scanAll(e, "t_user", 0); len(got) != 0 {
		t.Fatalf("prepared writes leaked: %v", got)
	}
	if _, err := tx.Insert(tab(e, "t_user"), row(2, "b", 2)); !errors.Is(err, ErrTxPrepared) {
		t.Fatalf("want ErrTxPrepared, got %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxPrepared) {
		t.Fatalf("direct commit of prepared tx must fail: %v", err)
	}
	if got := e.RecoverPrepared(); len(got) != 1 || got[0] != "xid-1" {
		t.Fatalf("recover: %v", got)
	}
	if err := e.CommitPrepared("xid-1"); err != nil {
		t.Fatal(err)
	}
	if got := scanAll(e, "t_user", 0); len(got) != 1 {
		t.Fatalf("xa commit lost: %v", got)
	}
	if got := e.RecoverPrepared(); len(got) != 0 {
		t.Fatalf("xid lingers: %v", got)
	}
	if err := e.CommitPrepared("xid-1"); !errors.Is(err, ErrXIDNotFound) {
		t.Fatalf("double commit: %v", err)
	}
}

func TestXARollback(t *testing.T) {
	e := newUserEngine(t)
	tx := e.Begin()
	mustInsert(t, tx, "t_user", row(1, "a", 1))
	if err := e.Prepare(tx, "xid-rb"); err != nil {
		t.Fatal(err)
	}
	if err := e.RollbackPrepared("xid-rb"); err != nil {
		t.Fatal(err)
	}
	if got := scanAll(e, "t_user", 0); len(got) != 0 {
		t.Fatalf("xa rollback leaked: %v", got)
	}
}

func TestXAPreparedHoldsLocks(t *testing.T) {
	e := newUserEngine(t)
	e.SetLockTimeout(50 * time.Millisecond)
	tx0 := e.Begin()
	mustInsert(t, tx0, "t_user", row(1, "a", 1))
	tx0.Commit()
	tbl, _ := e.Table("t_user")

	tx1 := e.Begin()
	se, _ := tbl.PKGet(tx1.ID(), btree.Key{sqltypes.NewInt(1)})
	up := se.Row.Clone()
	up[2] = sqltypes.NewInt(2)
	tx1.Update(tbl, se, setTo(up))
	if err := e.Prepare(tx1, "xid-lock"); err != nil {
		t.Fatal(err)
	}
	// A concurrent writer must still block on the prepared transaction.
	tx2 := e.Begin()
	if _, err := tx2.Update(tbl, se, setTo(up)); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("prepared tx lost its locks: %v", err)
	}
	tx2.Rollback()
	e.CommitPrepared("xid-lock")
	tx3 := e.Begin()
	if ok, err := tx3.Update(tbl, se, setTo(up)); !ok || err != nil {
		t.Fatalf("after xa commit: %v %v", ok, err)
	}
	tx3.Commit()
}

func TestDuplicateXID(t *testing.T) {
	e := newUserEngine(t)
	tx1 := e.Begin()
	mustInsert(t, tx1, "t_user", row(1, "a", 1))
	if err := e.Prepare(tx1, "same"); err != nil {
		t.Fatal(err)
	}
	tx2 := e.Begin()
	mustInsert(t, tx2, "t_user", row(2, "b", 2))
	if err := e.Prepare(tx2, "same"); !errors.Is(err, ErrXIDExists) {
		t.Fatalf("want ErrXIDExists, got %v", err)
	}
	e.RollbackPrepared("same")
	tx2.Rollback()
}

func TestTruncateAndDrop(t *testing.T) {
	e := newUserEngine(t)
	tx := e.Begin()
	mustInsert(t, tx, "t_user", row(1, "a", 1))
	tx.Commit()
	if err := e.Truncate("t_user"); err != nil {
		t.Fatal(err)
	}
	if got := scanAll(e, "t_user", 0); len(got) != 0 {
		t.Fatalf("truncate: %v", got)
	}
	if err := e.DropTable("t_user"); err != nil {
		t.Fatal(err)
	}
	if err := e.DropTable("t_user"); !errors.Is(err, ErrTableNotFound) {
		t.Fatalf("double drop: %v", err)
	}
	if e.HasTable("t_user") {
		t.Fatal("HasTable after drop")
	}
}

func TestCreateTableValidation(t *testing.T) {
	e := NewEngine("ds0")
	if err := e.CreateTable(TableSpec{Name: "x", Schema: sqltypes.Schema{{Name: "a"}}}); err == nil {
		t.Fatal("missing pk should fail")
	}
	spec := userSpec()
	if err := e.CreateTable(spec); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable(spec); !errors.Is(err, ErrTableExists) {
		t.Fatalf("duplicate table: %v", err)
	}
	bad := userSpec()
	bad.Name = "y"
	bad.PrimaryKey = []string{"missing"}
	if err := e.CreateTable(bad); err == nil {
		t.Fatal("bad pk column should fail")
	}
}

func TestTxFinishedErrors(t *testing.T) {
	e := newUserEngine(t)
	tx := e.Begin()
	tx.Commit()
	if _, err := tx.Insert(tab(e, "t_user"), row(1, "a", 1)); !errors.Is(err, ErrTxFinished) {
		t.Fatalf("insert after commit: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxFinished) {
		t.Fatalf("double commit: %v", err)
	}
	if err := tx.Rollback(); !errors.Is(err, ErrTxFinished) {
		t.Fatalf("rollback after commit: %v", err)
	}
}

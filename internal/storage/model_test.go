package storage

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"shardingsphere/internal/btree"
	"shardingsphere/internal/sqltypes"
)

// TestEngineAgainstModel drives the engine with random transactional
// operations and checks every state a reader can see against a reference
// model: a plain map mutated only when the transaction commits, read back
// as a sorted slice. A transaction's operations come in statements, and a
// random statement fails: it rolls back to the savepoint taken at its
// start. It exercises the insert/update/delete/rollback matrix, including
// re-insert after delete inside one transaction, rollback of an inserted
// row and rows written by two statements of which the second fails, and
// after every statement and transaction — inside the transaction, through
// its own eyes — compares the full scan, primary-key ranges under integer,
// fractional, open and inverted bounds, and the secondary index, whose
// equal keys must come back in row-id order and whose entries must be
// exactly those of the versions the rows keep.
func TestEngineAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(20220612))
	e := NewEngine("model")
	if err := e.CreateTable(TableSpec{
		Name: "t",
		Schema: sqltypes.Schema{
			{Name: "id", Type: sqltypes.KindInt},
			{Name: "v", Type: sqltypes.KindInt},
		},
		PrimaryKey: []string{"id"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex(IndexSpec{Name: "idx_v", Table: "t", Columns: []string{"v"}}); err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.Table("t")

	model := map[int64]int64{} // committed state
	const keySpace = 64
	rollbacks := 0
	for round := 0; round < 400; round++ {
		tx := e.Begin()
		pending := map[int64]*int64{} // nil = deleted, else value
		var touched []int64           // keys written, so later statements write them again
		for stmt, nStmts := 0, 1+rng.Intn(4); stmt < nStmts; stmt++ {
			sp, before, beforeTouched := tx.Savepoint(), maps.Clone(pending), len(touched)
			for op, nOps := 0, 1+rng.Intn(4); op < nOps; op++ {
				key := int64(rng.Intn(keySpace)) - keySpace/2
				if len(touched) > 0 && rng.Intn(2) == 0 {
					key = touched[rng.Intn(len(touched))]
				}
				modelOp(t, rng, tx, tbl, model, pending, key, round)
				touched = append(touched, key)
			}
			if rng.Intn(3) == 0 { // the statement fails
				if err := tx.RollbackTo(sp); err != nil {
					t.Fatal(err)
				}
				pending, touched = before, touched[:beforeTouched]
				rollbacks++
			}
			verifyModel(t, rng, tbl, tx.ID(), true, seenBy(model, pending), round)
			verifyModel(t, rng, tbl, 0, true, model, round)
			checkEntries(t, tbl, round)
		}
		if rng.Intn(2) == 0 {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			model = seenBy(model, pending)
		} else {
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
		}
		verifyModel(t, rng, tbl, 0, false, model, round)
		checkEntries(t, tbl, round)
	}
	if rollbacks == 0 {
		t.Fatal("no statement rolled back")
	}
}

// modelOp runs one random insert, update or delete of key in tx and notes
// its effect in pending; the transaction reads the model with pending over
// it.
func modelOp(t *testing.T, rng *rand.Rand, tx *Tx, tbl *Table, model map[int64]int64, pending map[int64]*int64, key int64, round int) {
	t.Helper()
	const valSpace = 6
	visible := func() bool {
		if pv, touched := pending[key]; touched {
			return pv != nil
		}
		_, ok := model[key]
		return ok
	}
	if rng.Intn(3) == 0 { // insert
		v := rng.Int63n(valSpace)
		_, err := tx.Insert(tbl, sqltypes.Row{sqltypes.NewInt(key), sqltypes.NewInt(v)})
		switch {
		case visible() && err == nil:
			t.Fatalf("round %d: duplicate insert of %d accepted", round, key)
		case !visible() && err != nil:
			t.Fatalf("round %d: insert %d: %v", round, key, err)
		case err == nil:
			pending[key] = &v
		}
		return
	}
	se, ok := tbl.PKGet(tx.ID(), btree.Key{sqltypes.NewInt(key)})
	if ok != visible() {
		t.Fatalf("round %d: visibility of %d: engine %v model %v", round, key, ok, visible())
	}
	if !ok {
		return
	}
	if rng.Intn(2) == 0 { // update
		v := rng.Int63n(valSpace)
		updated, err := tx.Update(tbl, se, nil, setTo(sqltypes.Row{sqltypes.NewInt(key), sqltypes.NewInt(v)}))
		if err != nil || !updated {
			t.Fatalf("round %d: update %d: %v %v", round, key, updated, err)
		}
		pending[key] = &v
		return
	}
	deleted, err := tx.Delete(tbl, se, nil, anyRow)
	if err != nil || !deleted {
		t.Fatalf("round %d: delete %d: %v %v", round, key, deleted, err)
	}
	pending[key] = nil
}

// seenBy is the committed model as a transaction with these pending writes
// reads it.
func seenBy(model map[int64]int64, pending map[int64]*int64) map[int64]int64 {
	own := maps.Clone(model)
	for k, pv := range pending {
		if pv == nil {
			delete(own, k)
		} else {
			own[k] = *pv
		}
	}
	return own
}

// checkEntries checks that every index of the table holds exactly the
// entries of the versions its rows keep: a committed version's, and a
// pending version's unless the row is a pending delete.
func checkEntries(t *testing.T, tbl *Table, round int) {
	t.Helper()
	n := len(tbl.schema)
	var buf keyBuf
	for _, ix := range tbl.indexes {
		want := 0
		tbl.pk.Ascend(func(slot *rowSlot) bool {
			pending := slot.uncommitted
			if slot.deleted() || slot.committed != "" && pending != "" && ix.sameKey(slot.committed, pending, n) {
				pending = ""
			}
			for _, version := range []string{slot.committed, pending} {
				if version == "" {
					continue
				}
				want++
				if got, ok := ix.tree.Get(ix.keyOf(&buf, version, n, slot.id)); !ok || got != slot {
					t.Fatalf("round %d: %s has no entry for version %v of row %d", round, ix.name, decode(version, n, nil), slot.id)
				}
			}
			return true
		})
		if got := entries(ix.tree); got != want {
			t.Fatalf("round %d: %s has %d entries, want the %d of the kept versions", round, ix.name, got, want)
		}
	}
}

// entries counts a tree's entries by walking them.
func entries(tr *btree.Tree[*rowSlot]) int {
	n := 0
	tr.Ascend(func(*rowSlot) bool { n++; return true })
	return n
}

// verifyModel compares what the transaction reads with the model, sorted;
// open says that some transaction has uncommitted writes.
func verifyModel(t *testing.T, rng *rand.Rand, tbl *Table, txID int64, open bool, model map[int64]int64, round int) {
	t.Helper()
	var want []ScanEntry
	for k, v := range model {
		want = append(want, ScanEntry{rec: encode(sqltypes.Row{sqltypes.NewInt(k), sqltypes.NewInt(v)}), n: 2})
	}
	slices.SortFunc(want, func(a, b ScanEntry) int { return cmp.Compare(a.row()[0].I, b.row()[0].I) })
	check := func(what string, got, want []ScanEntry) {
		t.Helper()
		same := slices.EqualFunc(got, want, func(a, b ScanEntry) bool {
			return a.row()[0].I == b.row()[0].I && a.row()[1].I == b.row()[1].I
		})
		if !same {
			t.Fatalf("round %d, tx %d: %s:\n got %v\nwant %v", round, txID, what, got, want)
		}
	}
	var got []ScanEntry
	collect := func(se ScanEntry) bool { got = append(got, se); return true }
	tbl.Scan(txID, collect)
	check("scan", got, want)
	if pk, ix := entries(tbl.pk), entries(tbl.indexes["idx_v"].tree); !open && (pk != len(want) || ix != len(want)) {
		t.Fatalf("round %d: %d rows, but %d primary-key and %d index entries", round, len(want), pk, ix)
	}

	// Primary-key ranges: "id BETWEEN 1.5 AND 7" probes the integer keys
	// with a float; nil is an open bound; lo > hi is an empty range.
	bound := func() btree.Key {
		switch id := int64(rng.Intn(70)) - 35; rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return btree.Key{sqltypes.NewFloat(float64(id) + 0.5)}
		default:
			return btree.Key{sqltypes.NewInt(id)}
		}
	}
	for i := 0; i < 4; i++ {
		lo, hi := bound(), bound()
		var inRange []ScanEntry
		for _, se := range want {
			if (lo == nil || sqltypes.Compare(se.row()[0], lo[0]) >= 0) && (hi == nil || sqltypes.Compare(se.row()[0], hi[0]) <= 0) {
				inRange = append(inRange, se)
			}
		}
		got = nil
		tbl.PKRange(txID, lo, hi, collect)
		check(fmt.Sprintf("pk range [%v, %v]", lo, hi), got, inRange)
	}

	// The index on v, probed the way the query processor probes it: one
	// value, whose rows come back in row-id order. An entry may belong to a
	// version the reader does not see, so the reader re-checks, as the
	// query processor does. Afterwards a range of values: once no
	// transaction is open every entry is exact, and the range is ordered by
	// (value, row id).
	for v := int64(0); v < 6; v++ {
		vhi := v
		if !open {
			vhi += rng.Int63n(3)
		}
		got = nil
		if err := tbl.IndexRange(txID, "idx_v", btree.Key{sqltypes.NewInt(v)}, btree.Key{sqltypes.NewInt(vhi)}, func(se ScanEntry) bool {
			if se.row()[1].I >= v && se.row()[1].I <= vhi {
				got = append(got, se)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if a.row()[1].I > b.row()[1].I || (a.row()[1].I == b.row()[1].I && a.slot.id >= b.slot.id) {
				t.Fatalf("round %d, tx %d: index range [%d, %d] out of (value, row id) order: %v (row %d) before %v (row %d)",
					round, txID, v, vhi, a.row(), a.slot.id, b.row(), b.slot.id)
			}
		}
		var inRange []ScanEntry
		for _, se := range want {
			if se.row()[1].I >= v && se.row()[1].I <= vhi {
				inRange = append(inRange, se)
			}
		}
		slices.SortFunc(got, func(a, b ScanEntry) int { return cmp.Compare(a.row()[0].I, b.row()[0].I) })
		check(fmt.Sprintf("index range [%d, %d]", v, vhi), got, inRange)
	}
}

// TestKeyKinds covers the primary keys the inline integer lane does not
// hold: a string key, and a two-column key probed by its leading column.
func TestKeyKinds(t *testing.T) {
	e := NewEngine("kinds")
	for _, spec := range []TableSpec{
		{Name: "s", Schema: sqltypes.Schema{{Name: "name", Type: sqltypes.KindString}}, PrimaryKey: []string{"name"}},
		{Name: "ab", Schema: sqltypes.Schema{{Name: "a", Type: sqltypes.KindInt}, {Name: "b", Type: sqltypes.KindString}}, PrimaryKey: []string{"a", "b"}},
	} {
		if err := e.CreateTable(spec); err != nil {
			t.Fatal(err)
		}
	}
	s, ab := tab(e, "s"), tab(e, "ab")
	tx := e.Begin()
	for _, name := range []string{"d", "b", "a", "c"} {
		mustInsert(t, tx, "s", sqltypes.Row{sqltypes.NewString(name)})
	}
	for _, k := range []struct {
		a int64
		b string
	}{{2, "x"}, {1, "y"}, {1, "x"}, {3, "x"}} {
		mustInsert(t, tx, "ab", sqltypes.Row{sqltypes.NewInt(k.a), sqltypes.NewString(k.b)})
	}
	if _, err := tx.Insert(ab, sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewString("x")}); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate two-column key: %v", err)
	}
	tx.Commit()

	rows := func(tbl *Table, lo, hi btree.Key) string {
		var out []string
		tbl.PKRange(0, lo, hi, func(se ScanEntry) bool {
			out = append(out, fmt.Sprint(se.row()))
			return true
		})
		return strings.Join(out, " ")
	}
	str := func(v string) btree.Key { return btree.Key{sqltypes.NewString(v)} }
	num := func(v int64) btree.Key { return btree.Key{sqltypes.NewInt(v)} }
	for _, c := range []struct {
		tbl    *Table
		lo, hi btree.Key
		want   string
	}{
		{s, str("b"), str("c"), "(b) (c)"},
		{s, str("bb"), nil, "(c) (d)"},
		{s, str("c"), str("b"), ""},
		{ab, num(1), num(1), "(1, x) (1, y)"},
		{ab, num(2), nil, "(2, x) (3, x)"},
		{ab, nil, btree.Key{sqltypes.NewInt(1), sqltypes.NewString("x")}, "(1, x)"},
		{ab, btree.Key{sqltypes.NewInt(1), sqltypes.NewString("y")}, num(2), "(1, y) (2, x)"},
		{ab, num(3), num(1), ""},
	} {
		if got := rows(c.tbl, c.lo, c.hi); got != c.want {
			t.Errorf("%s range [%v, %v] = %q, want %q", c.tbl.Name(), c.lo, c.hi, got, c.want)
		}
	}
	if _, ok := ab.PKGet(0, btree.Key{sqltypes.NewInt(1), sqltypes.NewString("y")}); !ok {
		t.Error("two-column point lookup missed")
	}
	if _, ok := ab.PKGet(0, num(1)); ok {
		t.Error("a leading column alone is not a key")
	}
}

// TestReadPathAllocations: a point lookup and a short range scan reach
// their rows without allocating.
func TestReadPathAllocations(t *testing.T) {
	e := newUserEngine(t)
	tx := e.Begin()
	for i := int64(1); i <= 3000; i++ {
		mustInsert(t, tx, "t_user", row(i, "u", i%7))
	}
	tx.Commit()
	tbl := tab(e, "t_user")
	var keys [2]sqltypes.Value
	visited := 0
	visit := func(ScanEntry) bool { visited++; return true }
	if n := testing.AllocsPerRun(100, func() {
		keys[0] = sqltypes.NewInt(1500)
		if _, ok := tbl.PKGet(0, keys[:1]); !ok {
			t.Fatal("point lookup missed")
		}
	}); n != 0 {
		t.Errorf("PKGet allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		keys[0], keys[1] = sqltypes.NewInt(1500), sqltypes.NewInt(1501)
		tbl.PKRange(0, keys[0:1], keys[1:2], visit)
	}); n != 0 {
		t.Errorf("a 2-row PKRange allocates %v times", n)
	}
	if visited != 2*101 {
		t.Fatalf("visited %d rows, want %d", visited, 2*101)
	}
}

// TestWritePathAllocations pins the allocations of a write and its commit
// on a table with a secondary index: an Insert, an Update that moves the
// indexed column, a Delete. The counts include the test's own Begin and
// row. They read 5, 4 and 3: a version is one record, its one allocation,
// and a transaction's first undo entries live in it; with the entries in a
// slice of their own they were 6, 5 and 4, with a key copy in every row
// slot and index entry 9, 7 and 5, and with a []Value version 7, 5 and 4.
func TestWritePathAllocations(t *testing.T) {
	e := newUserEngine(t)
	if err := e.CreateIndex(IndexSpec{Name: "idx_age", Table: "t_user", Columns: []string{"age"}}); err != nil {
		t.Fatal(err)
	}
	tbl := tab(e, "t_user")
	var inserted, updated, deleted int64
	key := btree.Key{sqltypes.Null}
	// The caller's room for the version it reads and the one it writes, as
	// a session's arena gives it.
	buf, next := make(sqltypes.Row, 0, 3), make(sqltypes.Row, 0, 3)
	moveAge := func(cur sqltypes.Row) (sqltypes.Row, error) {
		r := append(next[:0], cur...)
		r[2] = sqltypes.NewInt(cur[2].I + 7)
		return r, nil
	}
	write := func(id int64, op func(*Tx, ScanEntry) (bool, error)) {
		tx := e.Begin()
		key[0] = sqltypes.NewInt(id)
		se, ok := tbl.PKGet(tx.ID(), key)
		if !ok {
			t.Fatalf("row %d missing", id)
		}
		if ok, err := op(tx, se); !ok || err != nil {
			t.Fatalf("row %d: %v, %v", id, ok, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	insert := func() {
		inserted++
		tx := e.Begin()
		if _, err := tx.Insert(tbl, row(inserted, "u", inserted%7)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	update := func() {
		updated++
		write(updated, func(tx *Tx, se ScanEntry) (bool, error) { return tx.Update(tbl, se, buf, moveAge) })
	}
	remove := func() {
		deleted++
		write(deleted, func(tx *Tx, se ScanEntry) (bool, error) { return tx.Delete(tbl, se, buf, anyRow) })
	}
	for range 1000 {
		insert()
	}
	for _, c := range []struct {
		name string
		fn   func()
		max  float64
	}{
		{"Insert", insert, 5},
		{"Update", update, 4},
		{"Delete", remove, 3},
	} {
		if n := testing.AllocsPerRun(200, c.fn); n > c.max {
			t.Errorf("%s and its commit allocate %v times, want at most %v", c.name, n, c.max)
		}
	}
}

// TestConcurrentTransfersConserveSum runs the classic bank-transfer
// invariant: concurrent transactions move value between rows; the total
// must be conserved because every transfer commits or aborts atomically.
func TestConcurrentTransfersConserveSum(t *testing.T) {
	e := NewEngine("bank")
	// Workers lock from→to against to→from; each deadlock resolves by this
	// timeout, so keep it far below the 2 s default.
	e.SetLockTimeout(20 * time.Millisecond)
	if err := e.CreateTable(TableSpec{
		Name: "acct",
		Schema: sqltypes.Schema{
			{Name: "id", Type: sqltypes.KindInt},
			{Name: "bal", Type: sqltypes.KindInt},
		},
		PrimaryKey: []string{"id"},
	}); err != nil {
		t.Fatal(err)
	}
	const accounts = 8
	const initial = 1000
	tbl, _ := e.Table("acct")
	seedTx := e.Begin()
	for i := int64(0); i < accounts; i++ {
		if _, err := seedTx.Insert(tbl, sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewInt(initial)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := seedTx.Commit(); err != nil {
		t.Fatal(err)
	}

	add := func(delta int64) func(sqltypes.Row) (sqltypes.Row, error) {
		return func(cur sqltypes.Row) (sqltypes.Row, error) {
			r := cur.Clone()
			r[1] = sqltypes.NewInt(r[1].I + delta)
			return r, nil
		}
	}
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 100; i++ {
				from := int64(rng.Intn(accounts))
				to := int64(rng.Intn(accounts))
				if from == to {
					continue
				}
				tx := e.Begin()
				fe, ok1 := tbl.PKGet(tx.ID(), btree.Key{sqltypes.NewInt(from)})
				te, ok2 := tbl.PKGet(tx.ID(), btree.Key{sqltypes.NewInt(to)})
				if !ok1 || !ok2 {
					tx.Rollback()
					done <- fmt.Errorf("accounts vanished")
					return
				}
				amount := int64(rng.Intn(50))
				// Each balance moves by Update's callback on the version
				// the row lock grants.
				if ok, err := tx.Update(tbl, fe, nil, add(-amount)); err != nil || !ok {
					tx.Rollback() // lock timeout: abort cleanly
					continue
				}
				if ok, err := tx.Update(tbl, te, nil, add(amount)); err != nil || !ok {
					tx.Rollback()
					continue
				}
				// Half the transfers roll back deliberately.
				if rng.Intn(2) == 0 {
					tx.Rollback()
				} else {
					tx.Commit()
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	total := int64(0)
	tbl.Scan(0, func(se ScanEntry) bool {
		total += se.row()[1].I
		return true
	})
	if total != accounts*initial {
		t.Fatalf("money not conserved: %d != %d", total, accounts*initial)
	}
}

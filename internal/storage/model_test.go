package storage

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"shardingsphere/internal/btree"
	"shardingsphere/internal/sqltypes"
)

// TestEngineAgainstModel drives the engine with random transactional
// operations and checks every committed state against a reference model:
// a plain map mutated only when the transaction commits. It exercises the
// insert/update/delete/rollback matrix, including re-insert after delete
// inside one transaction.
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
	tbl, _ := e.Table("t")

	model := map[int64]int64{} // committed state
	const keySpace = 64

	for round := 0; round < 400; round++ {
		tx := e.Begin()
		pending := map[int64]*int64{} // nil = deleted, else value
		nOps := 1 + rng.Intn(6)
		for op := 0; op < nOps; op++ {
			key := int64(rng.Intn(keySpace))
			visible := func() (int64, bool) {
				if pv, touched := pending[key]; touched {
					if pv == nil {
						return 0, false
					}
					return *pv, true
				}
				v, ok := model[key]
				return v, ok
			}
			switch rng.Intn(3) {
			case 0: // insert
				v := rng.Int63n(1000)
				_, err := tx.Insert("t", sqltypes.Row{sqltypes.NewInt(key), sqltypes.NewInt(v)})
				if _, exists := visible(); exists {
					if err == nil {
						t.Fatalf("round %d: duplicate insert of %d accepted", round, key)
					}
				} else {
					if err != nil {
						t.Fatalf("round %d: insert %d: %v", round, key, err)
					}
					vv := v
					pending[key] = &vv
				}
			case 1: // update
				se, ok := tbl.PKGet(tx.ID(), btree.Key{sqltypes.NewInt(key)})
				_, modelOK := visible()
				if ok != modelOK {
					t.Fatalf("round %d: visibility of %d: engine %v model %v", round, key, ok, modelOK)
				}
				if !ok {
					continue
				}
				v := rng.Int63n(1000)
				updated, err := tx.Update("t", se.RowID, sqltypes.Row{sqltypes.NewInt(key), sqltypes.NewInt(v)})
				if err != nil || !updated {
					t.Fatalf("round %d: update %d: %v %v", round, key, updated, err)
				}
				vv := v
				pending[key] = &vv
			case 2: // delete
				se, ok := tbl.PKGet(tx.ID(), btree.Key{sqltypes.NewInt(key)})
				_, modelOK := visible()
				if ok != modelOK {
					t.Fatalf("round %d: visibility of %d: engine %v model %v", round, key, ok, modelOK)
				}
				if !ok {
					continue
				}
				deleted, err := tx.Delete("t", se.RowID)
				if err != nil || !deleted {
					t.Fatalf("round %d: delete %d: %v %v", round, key, deleted, err)
				}
				pending[key] = nil
			}
		}
		// Commit or roll back, then verify the committed state matches.
		if rng.Intn(2) == 0 {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			for k, pv := range pending {
				if pv == nil {
					delete(model, k)
				} else {
					model[k] = *pv
				}
			}
		} else {
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
		}
		verifyModel(t, tbl, model, round)
	}
}

func verifyModel(t *testing.T, tbl *Table, model map[int64]int64, round int) {
	t.Helper()
	got := map[int64]int64{}
	prev := int64(-1)
	tbl.Scan(0, func(se ScanEntry) bool {
		k := se.Row[0].I
		if k <= prev {
			t.Fatalf("round %d: scan out of order: %d after %d", round, k, prev)
		}
		prev = k
		got[k] = se.Row[1].I
		return true
	})
	if len(got) != len(model) {
		t.Fatalf("round %d: engine has %d rows, model %d\nengine: %v\nmodel: %v",
			round, len(got), len(model), got, model)
	}
	for k, v := range model {
		if got[k] != v {
			t.Fatalf("round %d: key %d: engine %d model %d", round, k, got[k], v)
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
	seedTx := e.Begin()
	for i := int64(0); i < accounts; i++ {
		if _, err := seedTx.Insert("acct", sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewInt(initial)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := seedTx.Commit(); err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.Table("acct")

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
				// Lock, then re-read under the lock (SELECT FOR UPDATE),
				// then apply the decrement — the no-lost-update protocol.
				if ok, err := tx.Lock("acct", fe.RowID); err != nil || !ok {
					tx.Rollback() // lock timeout: abort cleanly
					continue
				}
				fe2, _ := tbl.PKGet(tx.ID(), btree.Key{sqltypes.NewInt(from)})
				f := fe2.Row.Clone()
				f[1] = sqltypes.NewInt(f[1].I - amount)
				if ok, err := tx.Update("acct", fe.RowID, f); err != nil || !ok {
					tx.Rollback()
					continue
				}
				// Same lock-then-reread dance for the receiving account.
				if ok, err := tx.Lock("acct", te.RowID); err != nil || !ok {
					tx.Rollback()
					continue
				}
				te2, _ := tbl.PKGet(tx.ID(), btree.Key{sqltypes.NewInt(to)})
				tt := te2.Row.Clone()
				tt[1] = sqltypes.NewInt(tt[1].I + amount)
				if ok, err := tx.Update("acct", te.RowID, tt); err != nil || !ok {
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
		total += se.Row[1].I
		return true
	})
	if total != accounts*initial {
		t.Fatalf("money not conserved: %d != %d", total, accounts*initial)
	}
}

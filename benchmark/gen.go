package main

// The load generator. It is owned by this directory on purpose: the
// benchmark's inputs must not change when a product file changes, so
// nothing here imports internal/bench. The transaction mix is Sysbench
// OLTP's (paper Table II): 10 point selects, one simple / SUM / ORDER BY /
// DISTINCT range of 100 ids, one index update, one non-index update, one
// delete + insert of the same id.
//
// Every column of every row is a pure function of (seed, id, version), so
// any result row is checkable in O(1) without keeping a copy of the data.

import (
	"fmt"
	"math/rand"

	"shardingsphere/internal/sqltypes"
)

const (
	defaultRows = 50000
	rangeSize   = 100
	// coldShapes is 4 x plancache.DefaultCapacity: the cold_shapes
	// working set, split evenly between the clients so no client ever
	// reuses a shape another client just compiled.
	coldShapes = 16384
	cLen       = 119 // 10 groups of 11 digits, '-' separated
	padLen     = 59  // 5 groups of 11 digits, '-' separated
	groupLen   = 11
	// clientSeedStride separates the clients' random streams.
	clientSeedStride = 7919
)

const (
	sqlPoint         = "SELECT c FROM sbtest WHERE id = ?"
	sqlRangeSimple   = "SELECT c FROM sbtest WHERE id BETWEEN ? AND ?"
	sqlRangeSum      = "SELECT SUM(k) FROM sbtest WHERE id BETWEEN ? AND ?"
	sqlRangeOrder    = "SELECT c FROM sbtest WHERE id BETWEEN ? AND ? ORDER BY c"
	sqlRangeDistinct = "SELECT DISTINCT c FROM sbtest WHERE id BETWEEN ? AND ? ORDER BY c"
	sqlIndexUpdate   = "UPDATE sbtest SET k = k + 1 WHERE id = ?"
	sqlNonIndexUpd   = "UPDATE sbtest SET c = ? WHERE id = ?"
	sqlDelete        = "DELETE FROM sbtest WHERE id = ?"
	sqlInsert        = "INSERT INTO sbtest (id, k, c, pad) VALUES (?, ?, ?, ?)"
	sqlBegin         = "BEGIN"
	sqlCommit        = "COMMIT"
	sqlCreate        = "CREATE TABLE sbtest (id INT PRIMARY KEY, k INT NOT NULL, c VARCHAR(120) NOT NULL, pad CHAR(60) NOT NULL)"
	sqlIndex         = "CREATE INDEX k_sbtest ON sbtest (k)"
)

// mix is splitmix64's finalizer: a bijective 64-bit hash.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rowHash seeds the derivation of one column of one row version.
func rowHash(seed, id int64, ver uint32, col uint64) uint64 {
	return mix(mix(uint64(seed)^col<<56) ^ uint64(id)<<24 ^ uint64(ver))
}

// dataset derives row contents from the seed.
type dataset struct {
	seed int64
	rows int
	// ksum[i] is the sum of the original k of ids 1..i, so the expected
	// SUM(k) of any untouched range is one subtraction.
	ksum []int64
}

func newDataset(seed int64, rows int) *dataset {
	d := &dataset{seed: seed, rows: rows, ksum: make([]int64, rows+1)}
	for id := 1; id <= rows; id++ {
		d.ksum[id] = d.ksum[id-1] + d.k(int64(id), 0)
	}
	return d
}

// k derives the k column: uniform in [1, rows] like sysbench's.
func (d *dataset) k(id int64, ver uint32) int64 {
	return int64(rowHash(d.seed, id, ver, 1)%uint64(d.rows)) + 1
}

// digits writes groups of 11 decimal digits separated by '-' into buf.
// When tail >= 0 the last group is tail zero-padded, which makes the
// string unique per id and lets a checker recover the id from the value.
func digits(buf []byte, h uint64, tail int64) {
	n := (len(buf) + 1) / (groupLen + 1)
	for g := 0; g < n; g++ {
		h = mix(h)
		v := h % 100000000000
		if g == n-1 && tail >= 0 {
			v = uint64(tail)
		}
		off := g * (groupLen + 1)
		for i := groupLen - 1; i >= 0; i-- {
			buf[off+i] = byte('0' + v%10)
			v /= 10
		}
		if g < n-1 {
			buf[off+groupLen] = '-'
		}
	}
}

// c derives the c column into buf (len cLen). Its last group is the id.
func (d *dataset) c(buf []byte, id int64, ver uint32) {
	digits(buf, rowHash(d.seed, id, ver, 2), id)
}

func (d *dataset) cString(id int64, ver uint32) string {
	var buf [cLen]byte
	d.c(buf[:], id, ver)
	return string(buf[:])
}

func (d *dataset) padString(id int64, ver uint32) string {
	var buf [padLen]byte
	digits(buf[:], rowHash(d.seed, id, ver, 3), -1)
	return string(buf[:])
}

// idOfC recovers the id from a c value, or -1 when it is malformed.
func idOfC(c string) int64 {
	if len(c) != cLen {
		return -1
	}
	var id int64
	for _, ch := range []byte(c[cLen-groupLen:]) {
		if ch < '0' || ch > '9' {
			return -1
		}
		id = id*10 + int64(ch-'0')
	}
	return id
}

// rowState is what a client's committed writes did to one of its rows.
// The zero value is the loaded row.
type rowState struct {
	cver uint32 // version of c (non-index update, insert)
	kver uint32 // version of k and pad (insert)
	kadd int64  // index updates since the last insert
}

type rowChange struct {
	id int64
	st rowState
}

type opKind uint8

const (
	opBegin opKind = iota
	opCommit
	opPoint
	opRangeSimple
	opRangeSum
	opRangeOrder
	opRangeDistinct
	opWrite
)

// op is one statement of a transaction plus what its checker needs.
type op struct {
	kind opKind
	sql  string
	args []sqltypes.Value
	id   int64 // point: the id; ranges: the low bound
}

// gen produces one client's statement stream. Client w of n owns the ids
// of the w-th of n equal slices of the table and touches no other, so two
// clients never lock the same row: nothing in this benchmark measures
// contention, and no transaction can fail on a lock.
type gen struct {
	d      *dataset
	wl     *workload
	rng    *rand.Rand
	lo, hi int64 // this client's ids, inclusive
	// state holds this client's committed changes; pending the changes
	// of the transaction being generated, applied by commit().
	state   map[int64]rowState
	pending []rowChange
	// kdelta is the committed change to SUM(k) over the whole table.
	kdelta int64
	// shapes are this client's cold_shapes statements; shapeAt cycles.
	shapes  []string
	shapeAt int

	ops  []op
	args []sqltypes.Value
	cbuf [cLen]byte
}

func newGen(d *dataset, wl *workload, seed int64, client, clients int) *gen {
	per := int64(d.rows / clients)
	g := &gen{
		d:     d,
		wl:    wl,
		lo:    int64(client)*per + 1,
		hi:    int64(client+1) * per,
		state: map[int64]rowState{},
	}
	if wl.shapes > 0 {
		n := wl.shapes / clients
		g.shapes = make([]string, n)
		for i := range g.shapes {
			g.shapes[i] = fmt.Sprintf("SELECT c AS a%05d FROM sbtest WHERE id = ?", client*n+i)
		}
	}
	g.reseed(seed, client)
	return g
}

// reseed restarts the random stream (the layer walk replays the timed
// run's stream from its start) and keeps the committed row states.
func (g *gen) reseed(seed int64, client int) {
	g.rng = rand.New(rand.NewSource(seed + int64(client)*clientSeedStride))
	g.shapeAt = 0
}

// stepBack moves the shape cycle one before its start, so a warm-up
// transaction compiles the cycle's last shape (long evicted again when
// the cycle reaches it) and not the first one measured.
func (g *gen) stepBack() {
	if len(g.shapes) > 0 {
		g.shapeAt = len(g.shapes) - 1
	}
}

func (g *gen) randID() int64 { return g.lo + g.rng.Int63n(g.hi-g.lo+1) }

func (g *gen) rangeLo() int64 { return g.lo + g.rng.Int63n(g.hi-g.lo+2-rangeSize) }

// stateOf returns the row's state as this transaction's earlier
// statements left it.
func (g *gen) stateOf(id int64) rowState {
	for i := len(g.pending) - 1; i >= 0; i-- {
		if g.pending[i].id == id {
			return g.pending[i].st
		}
	}
	return g.state[id]
}

func (g *gen) kOf(id int64, st rowState) int64 { return g.d.k(id, st.kver) + st.kadd }

// next generates the next transaction. The returned ops are valid until
// the following call.
func (g *gen) next() []op {
	g.ops, g.args, g.pending = g.ops[:0], g.args[:0], g.pending[:0]
	g.wl.txn(g)
	return g.ops
}

// commit records that the transaction returned by next committed.
func (g *gen) commit() {
	for _, ch := range g.pending {
		old := g.state[ch.id]
		g.kdelta += g.kOf(ch.id, ch.st) - g.kOf(ch.id, old)
		g.state[ch.id] = ch.st
	}
}

func (g *gen) add(kind opKind, sql string, id int64, args ...sqltypes.Value) {
	at := len(g.args)
	g.args = append(g.args, args...)
	g.ops = append(g.ops, op{kind: kind, sql: sql, id: id, args: g.args[at:len(g.args):len(g.args)]})
}

func (g *gen) begin()    { g.add(opBegin, sqlBegin, 0) }
func (g *gen) commitOp() { g.add(opCommit, sqlCommit, 0) }

func (g *gen) point(sql string) {
	id := g.randID()
	g.add(opPoint, sql, id, sqltypes.NewInt(id))
}

func (g *gen) coldPoint() {
	sql := g.shapes[g.shapeAt]
	g.shapeAt = (g.shapeAt + 1) % len(g.shapes)
	g.point(sql)
}

func (g *gen) rangeOp(kind opKind, sql string) {
	lo := g.rangeLo()
	g.add(kind, sql, lo, sqltypes.NewInt(lo), sqltypes.NewInt(lo+rangeSize-1))
}

func (g *gen) reads() {
	for i := 0; i < 10; i++ {
		g.point(sqlPoint)
	}
	g.rangeOp(opRangeSimple, sqlRangeSimple)
	g.rangeOp(opRangeSum, sqlRangeSum)
	g.rangeOp(opRangeOrder, sqlRangeOrder)
	g.rangeOp(opRangeDistinct, sqlRangeDistinct)
}

func (g *gen) writes() {
	id := g.randID()
	st := g.stateOf(id)
	st.kadd++
	g.pending = append(g.pending, rowChange{id, st})
	g.add(opWrite, sqlIndexUpdate, id, sqltypes.NewInt(id))

	id = g.randID()
	st = g.stateOf(id)
	st.cver++
	g.pending = append(g.pending, rowChange{id, st})
	g.add(opWrite, sqlNonIndexUpd, id, sqltypes.NewString(g.d.cString(id, st.cver)), sqltypes.NewInt(id))

	id = g.randID()
	st = g.stateOf(id)
	st = rowState{cver: st.cver + 1, kver: st.kver + 1}
	g.pending = append(g.pending, rowChange{id, st})
	g.add(opWrite, sqlDelete, id, sqltypes.NewInt(id))
	g.add(opWrite, sqlInsert, id, sqltypes.NewInt(id), sqltypes.NewInt(g.d.k(id, st.kver)),
		sqltypes.NewString(g.d.cString(id, st.cver)), sqltypes.NewString(g.d.padString(id, st.kver)))
}

// check verifies one statement's output against the derived data. Reads
// run before writes in every transaction here, so a read sees exactly the
// client's committed state.
func (g *gen) check(o *op, rows []sqltypes.Row, affected int64) error {
	switch o.kind {
	case opBegin, opCommit:
		return nil
	case opWrite:
		if affected != 1 {
			return fmt.Errorf("%s id=%d: affected %d rows, want 1", o.sql, o.id, affected)
		}
		return nil
	case opPoint:
		if len(rows) != 1 || len(rows[0]) != 1 {
			return fmt.Errorf("point select id=%d: %d rows, want 1", o.id, len(rows))
		}
		return g.checkC(rows[0][0].AsString(), o.id)
	case opRangeSum:
		if len(rows) != 1 || len(rows[0]) != 1 {
			return fmt.Errorf("SUM range lo=%d: %d rows, want 1", o.id, len(rows))
		}
		want := g.d.ksum[o.id+rangeSize-1] - g.d.ksum[o.id-1]
		if len(g.state) > 0 {
			for id := o.id; id < o.id+rangeSize; id++ {
				if st, ok := g.state[id]; ok {
					want += g.kOf(id, st) - g.d.k(id, 0)
				}
			}
		}
		if got := rows[0][0].AsInt(); got != want {
			return fmt.Errorf("SUM(k) lo=%d: got %d, want %d", o.id, got, want)
		}
		return nil
	}
	// The three row-returning ranges: exactly the 100 ids of the range,
	// each once, each with its derived c; sorted where ORDER BY asks.
	if len(rows) != rangeSize {
		return fmt.Errorf("range kind=%d lo=%d: %d rows, want %d", o.kind, o.id, len(rows), rangeSize)
	}
	var seen [rangeSize]bool
	prev := ""
	for _, r := range rows {
		c := r[0].AsString()
		id := idOfC(c)
		if id < o.id || id >= o.id+rangeSize || seen[id-o.id] {
			return fmt.Errorf("range kind=%d lo=%d: unexpected or repeated id %d", o.kind, o.id, id)
		}
		seen[id-o.id] = true
		if err := g.checkC(c, id); err != nil {
			return err
		}
		if o.kind != opRangeSimple && c < prev {
			return fmt.Errorf("range kind=%d lo=%d: rows not sorted by c", o.kind, o.id)
		}
		prev = c
	}
	return nil
}

func (g *gen) checkC(got string, id int64) error {
	g.d.c(g.cbuf[:], id, g.state[id].cver)
	if got != string(g.cbuf[:]) {
		return fmt.Errorf("id=%d: c = %q, want %q", id, got, g.cbuf[:])
	}
	return nil
}

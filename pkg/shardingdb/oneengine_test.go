package shardingdb

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"shardingsphere/internal/chaos"
	"shardingsphere/internal/exec"
	"shardingsphere/internal/proxy"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/route"
	"shardingsphere/internal/sqlexec"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/storage"
)

// oneEngineRows is the table every statement below reads: id is the
// sharding key, k repeats with period 3 and v takes twelve distinct values,
// so v % 3 and v % 5 sort the rows differently.
func oneEngineRows() [][3]int64 {
	var rows [][3]int64
	for id := int64(1); id <= 12; id++ {
		rows = append(rows, [3]int64{id, id % 3, id * 7 % 13})
	}
	return rows
}

// oneEngineFloats is table f: x is a DOUBLE holding 2 as an integer on
// some rows and as 2.0 on others, which one engine holds to be one value.
func oneEngineFloats() []Row {
	return []Row{
		{Int(1), Int(2)}, {Int(2), Float(2)}, {Int(3), Float(2.5)}, {Int(4), Float(2)}, {Int(5), Int(2)}, {Int(6), Float(2.5)},
	}
}

// oneEngineStatements are the statements a literal that is structure (an
// ordinal), a literal read twice (a derived key), a dialect's LIMIT order or
// a grouped result merged across units used to break. keys are the output
// columns whose sequence the ORDER BY decides (nil: compared as a multiset
// only); cols, when set, are the only columns the statement decides (an
// ORDER BY with ties cut by a LIMIT).
var oneEngineStatements = []struct {
	sql, placeholders string
	args              []Value
	keys              []int
	cols              []int
}{
	{"SELECT id FROM t WHERE id IN (1, 5) ORDER BY 1 DESC",
		"SELECT id FROM t WHERE id IN (?, ?) ORDER BY 1 DESC", []Value{Int(1), Int(5)}, []int{0}, nil},
	{"SELECT id FROM t ORDER BY 1 DESC", "SELECT id FROM t ORDER BY 1 DESC", nil, []int{0}, nil},
	{"SELECT k, COUNT(*) FROM t GROUP BY 1", "SELECT k, COUNT(*) FROM t GROUP BY 1", nil, nil, nil},
	{"SELECT COUNT(*), SUM(v) FROM t GROUP BY k % 2",
		"SELECT COUNT(*), SUM(v) FROM t GROUP BY k % ?", []Value{Int(2)}, nil, nil},
	{"SELECT id, v FROM t ORDER BY 2 DESC LIMIT 3",
		"SELECT id, v FROM t ORDER BY 2 DESC LIMIT ?", []Value{Int(3)}, []int{0, 1}, nil},
	{"SELECT id FROM t ORDER BY id + 1 DESC LIMIT 2",
		"SELECT id FROM t ORDER BY id + ? DESC LIMIT ?", []Value{Int(1), Int(2)}, []int{0}, nil},
	{"SELECT k % 3, COUNT(*) FROM t GROUP BY k % 3",
		"SELECT k % ?, COUNT(*) FROM t GROUP BY k % ?", []Value{Int(3), Int(3)}, nil, nil},
	{"SELECT v % 3, v % 5 FROM t ORDER BY v % 5",
		"SELECT v % ?, v % ? FROM t ORDER BY v % ?", []Value{Int(3), Int(5), Int(5)}, []int{1}, nil},
	{"SELECT id FROM t WHERE k = 1 ORDER BY id LIMIT 3 OFFSET 1",
		"SELECT id FROM t WHERE k = ? ORDER BY id LIMIT ? OFFSET ?", []Value{Int(1), Int(3), Int(1)}, []int{0}, nil},
	{"SELECT id FROM t WHERE k = 1 ORDER BY id LIMIT 1, 3",
		"SELECT id FROM t WHERE k = ? ORDER BY id LIMIT ?, ?", []Value{Int(1), Int(1), Int(3)}, []int{0}, nil},
	// Grouped results: HAVING, ORDER BY an aggregate and LIMIT apply to
	// the merged groups, and a DISTINCT aggregate counts each value once
	// over all units.
	{"SELECT COUNT(DISTINCT k) FROM t", "SELECT COUNT(DISTINCT k) FROM t", nil, nil, nil},
	{"SELECT SUM(DISTINCT k) FROM t", "SELECT SUM(DISTINCT k) FROM t", nil, nil, nil},
	{"SELECT k, COUNT(*) FROM t GROUP BY k HAVING COUNT(*) > 3",
		"SELECT k, COUNT(*) FROM t GROUP BY k HAVING COUNT(*) > ?", []Value{Int(3)}, nil, nil},
	{"SELECT COUNT(*) FROM t HAVING COUNT(*) > 5", "SELECT COUNT(*) FROM t HAVING COUNT(*) > ?", []Value{Int(5)}, nil, nil},
	{"SELECT k, AVG(v) FROM t GROUP BY k HAVING AVG(v) > 6",
		"SELECT k, AVG(v) FROM t GROUP BY k HAVING AVG(v) > ?", []Value{Int(6)}, nil, nil},
	{"SELECT k, SUM(v) s FROM t GROUP BY k ORDER BY s DESC LIMIT 1",
		"SELECT k, SUM(v) s FROM t GROUP BY k ORDER BY s DESC LIMIT ?", []Value{Int(1)}, []int{0, 1}, nil},
	{"SELECT k, COUNT(*) c FROM t GROUP BY k ORDER BY c DESC LIMIT 1",
		"SELECT k, COUNT(*) c FROM t GROUP BY k ORDER BY c DESC LIMIT ?", []Value{Int(1)}, []int{0}, []int{1}},
	{"SELECT k FROM t GROUP BY k ORDER BY COUNT(*) DESC, k", "SELECT k FROM t GROUP BY k ORDER BY COUNT(*) DESC, k", nil, []int{0}, nil},
	{"SELECT MAX(v) - MIN(v) FROM t", "SELECT MAX(v) - MIN(v) FROM t", nil, nil, nil},
	{"SELECT MAX(v) - MIN(v) FROM t WHERE id IN (1, 2)",
		"SELECT MAX(v) - MIN(v) FROM t WHERE id IN (?, ?)", []Value{Int(1), Int(2)}, nil, nil},
	{"SELECT k, MAX(v) - MIN(v) + 1 FROM t GROUP BY k ORDER BY k",
		"SELECT k, MAX(v) - MIN(v) + ? FROM t GROUP BY k ORDER BY k", []Value{Int(1)}, []int{0, 1}, nil},
	{"SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY COUNT(*) + 1",
		"SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY COUNT(*) + ?", []Value{Int(1)}, nil, nil},
	{"SELECT AVG(DISTINCT v % 5) FROM t", "SELECT AVG(DISTINCT v % ?) FROM t", []Value{Int(5)}, nil, nil},
	{"SELECT k, COUNT(DISTINCT v % 3), COUNT(*), SUM(v), MAX(v) FROM t GROUP BY k ORDER BY k DESC",
		"SELECT k, COUNT(DISTINCT v % ?), COUNT(*), SUM(v), MAX(v) FROM t GROUP BY k ORDER BY k DESC", []Value{Int(3)}, []int{0}, nil},
	{"SELECT SUM(v % 2), SUM(v % 7) FROM t", "SELECT SUM(v % ?), SUM(v % ?) FROM t", []Value{Int(2), Int(7)}, nil, nil},
	// A column outside the aggregate of a global aggregate reads a row that
	// matched, not a unit's empty partial.
	{"SELECT k, COUNT(*) FROM t WHERE v = 6", "SELECT k, COUNT(*) FROM t WHERE v = ?", []Value{Int(6)}, nil, nil},
	{"SELECT k, COUNT(*) FROM t WHERE k = 1", "SELECT k, COUNT(*) FROM t WHERE k = ?", []Value{Int(1)}, nil, nil},
	// 2 and 2.0 on different units are one value.
	{"SELECT x, COUNT(*) FROM f GROUP BY x ORDER BY COUNT(*)", "SELECT x, COUNT(*) FROM f GROUP BY x ORDER BY COUNT(*)", nil, []int{0, 1}, nil},
	{"SELECT DISTINCT x FROM f ORDER BY x", "SELECT DISTINCT x FROM f ORDER BY x", nil, []int{0}, nil},
	// The units select the ORDER BY key too, so only the merger sees k alone.
	{"SELECT DISTINCT k FROM t ORDER BY v", "SELECT DISTINCT k FROM t ORDER BY v", nil, nil, nil},
	// An empty range: no row, whatever the algorithm makes of it.
	{"SELECT id FROM t WHERE id BETWEEN 5 AND 3", "SELECT id FROM t WHERE id BETWEEN ? AND ?", []Value{Int(5), Int(3)}, nil, nil},
	{"SELECT COUNT(*) FROM t WHERE id BETWEEN 5 AND 3", "SELECT COUNT(*) FROM t WHERE id BETWEEN ? AND ?", []Value{Int(5), Int(3)}, nil, nil},
	{"SELECT id FROM t WHERE id > 7 AND id < 6", "SELECT id FROM t WHERE id > ? AND id < ?", []Value{Int(7), Int(6)}, nil, nil},
	// A qualifier or a star's table spelled in another case than its
	// table names that table.
	{"SELECT T.id FROM t WHERE T.id = 1", "SELECT T.id FROM t WHERE T.id = ?", []Value{Int(1)}, nil, nil},
	{"SELECT T.id FROM t WHERE T.id BETWEEN 1 AND 3 ORDER BY T.id",
		"SELECT T.id FROM t WHERE T.id BETWEEN ? AND ? ORDER BY T.id", []Value{Int(1), Int(3)}, []int{0}, nil},
	{"SELECT T.* FROM t WHERE id = 1", "SELECT T.* FROM t WHERE id = ?", []Value{Int(1)}, nil, nil},
}

// TestRowsMatchOneEngine runs every statement through the kernel — the
// table in one shard and in four over two sources, by hash_mod and by the
// two range algorithms, both sources MySQL or both PostgreSQL, literal and
// placeholder form, first and second execution — and holds each answer to
// one sqlexec.Processor holding the same rows. At four shards it also runs
// them on the executor's read windows, where a source's units share one
// connection: inside BEGIN … COMMIT, on a database with MaxCon 1, and
// inside a transaction on a kernel over two remote data nodes. Last, a
// DELETE of an empty range must delete what one engine deletes: nothing;
// and an UPDATE and a DELETE qualifying by the table in another case
// must change what they change on one engine.
func TestRowsMatchOneEngine(t *testing.T) {
	ref := oneEngineRef(t)
	for _, dialect := range []string{"mysql", "postgresql"} {
		for _, run := range []struct {
			name   string
			layout oneEngineLayout
			tx     bool
		}{
			{"1 shard", oneEngineLayout{tShards: 1, uShards: 1, resources: "ds0, ds1"}, false},
			{"4 shards", oneEngineLayout{tShards: 4, uShards: 4, resources: "ds0, ds1"}, false},
			{"4 shards in a transaction", oneEngineLayout{tShards: 4, uShards: 4, resources: "ds0, ds1"}, true},
			{"4 shards at MaxCon 1", oneEngineLayout{tShards: 4, uShards: 4, resources: "ds0, ds1", maxCon: 1}, false},
			{"4 shards on remote nodes in a transaction", oneEngineLayout{tShards: 4, uShards: 4, resources: "ds0, ds1", remote: true}, true},
			{"4 shards on one source in a transaction", oneEngineLayout{tShards: 4, uShards: 4, resources: "ds0"}, true},
			{"4 shards on one source at MaxCon 1", oneEngineLayout{tShards: 4, uShards: 4, resources: "ds0", maxCon: 1}, false},
			{"4 shards by boundary_range", oneEngineLayout{tShards: 4, uShards: 4, resources: "ds0, ds1", algorithm: "boundary_range"}, false},
			{"4 shards by volume_range", oneEngineLayout{tShards: 4, uShards: 4, resources: "ds0, ds1", algorithm: "volume_range"}, false},
		} {
			s := layoutDB(t, dialect, run.layout)
			if run.tx {
				if err := s.Begin(); err != nil {
					t.Fatal(err)
				}
			}
			for _, c := range oneEngineStatements {
				want, err := ref.Execute(c.sql)
				if err != nil {
					t.Fatalf("reference %q: %v", c.sql, err)
				}
				for _, form := range []struct {
					sql  string
					args []Value
				}{{c.sql, nil}, {c.placeholders, c.args}} {
					for exec := 1; exec <= 2; exec++ {
						got, err := s.QueryAll(form.sql, form.args...)
						where := fmt.Sprintf("%s, %s, execution %d: %s %v", dialect, run.name, exec, form.sql, form.args)
						if errors.Is(err, sqlexec.ErrBadArgCount) {
							t.Fatalf("%s: a unit's text reads an argument it was not given: %v", where, err)
						}
						if err != nil {
							t.Fatalf("%s: %v", where, err)
						}
						if msg := sameAnswer(project(got, c.cols), project(want.Rows, c.cols), c.keys); msg != "" {
							t.Errorf("%s: %s\n got %v\nwant %v", where, msg, got, want.Rows)
						}
					}
				}
			}
			for _, form := range []struct {
				sql  string
				args []Value
			}{{"DELETE FROM t WHERE id BETWEEN 5 AND 3", nil}, {"DELETE FROM t WHERE id BETWEEN ? AND ?", []Value{Int(5), Int(3)}}} {
				where := fmt.Sprintf("%s, %s: %s %v", dialect, run.name, form.sql, form.args)
				n, err := s.Exec(form.sql, form.args...)
				if err != nil || n.Affected != 0 {
					t.Fatalf("%s: %d rows affected, %v", where, n.Affected, err)
				}
				got, err := s.QueryAll("SELECT id, k, v FROM t ORDER BY id")
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Execute("SELECT id, k, v FROM t ORDER BY id")
				if err != nil {
					t.Fatal(err)
				}
				if msg := sameAnswer(got, want.Rows, []int{0}); msg != "" {
					t.Errorf("%s: %s\n got %v\nwant %v", where, msg, got, want.Rows)
				}
			}
			// Each statement writes the one row id, after which its v is v
			// (-1: the row is gone); v starts at id * 7 % 13.
			dml := oneEngineRef(t)
			for _, form := range []struct {
				sql   string
				args  []Value
				id, v int64
			}{
				{"UPDATE t SET v = T.v + 1 WHERE T.id = 4", nil, 4, 3},
				{"UPDATE t SET v = T.v + ? WHERE T.id = ?", []Value{Int(2), Int(5)}, 5, 11},
				{"DELETE FROM t WHERE T.id = 6", nil, 6, -1},
				{"DELETE FROM t WHERE T.id = ?", []Value{Int(7)}, 7, -1},
				{"UPDATE t SET v = T.v + 1 WHERE T.id IN (8, 8)", nil, 8, 5},
				{"UPDATE t SET v = T.v + ? WHERE T.id IN (?, ?)", []Value{Int(1), Int(9), Int(9)}, 9, 12},
				{"DELETE FROM t WHERE T.id IN (?, ?)", []Value{Int(10), Int(10)}, 10, -1},
				{"UPDATE t SET id = id, v = T.v + 1 WHERE T.id = 3", nil, 3, 9},
			} {
				where := fmt.Sprintf("%s, %s: %s %v", dialect, run.name, form.sql, form.args)
				n, err := s.Exec(form.sql, form.args...)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				want, err := dml.Execute(form.sql, form.args...)
				if err != nil {
					t.Fatal(err)
				}
				if n.Affected != 1 || want.Affected != 1 {
					t.Errorf("%s: %d rows affected, one engine %d, want 1", where, n.Affected, want.Affected)
				}
				got, err := s.QueryAll("SELECT id, k, v FROM t ORDER BY id")
				if err != nil {
					t.Fatal(err)
				}
				v := int64(-1)
				for _, r := range got {
					if r[0].I == form.id {
						v = r[2].I
					}
				}
				if v != form.v {
					t.Errorf("%s: row %d has v %d, want %d", where, form.id, v, form.v)
				}
				rows, err := dml.Execute("SELECT id, k, v FROM t ORDER BY id")
				if err != nil {
					t.Fatal(err)
				}
				if msg := sameAnswer(got, rows.Rows, []int{0}); msg != "" {
					t.Errorf("%s: %s\n got %v\nwant %v", where, msg, got, rows.Rows)
				}
			}
			if run.tx {
				if err := s.Commit(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// Layouts of tables t and u (oneEngineLayout), named for
// oneEngineJoins' refusal lists.
const (
	oneShard   = "1 shard"
	oneSource  = "4 shards on ds0"
	twoSources = "4 shards over ds0, ds1"
	bound      = "4 shards over ds0, ds1, bound"
	uAtThree   = "u at 3 shards"
)

// oneEngineLayout shards t (and f) and u on id by algorithm (empty:
// hash_mod; a range algorithm takes rangeProperties and four shards):
// tShards and uShards shards over resources, t and u bound when bind is
// set. maxCon is the kernel's per-source connection budget (0: 4); remote
// serves ds0 and ds1 from two data nodes over the wire instead of embedded
// engines.
type oneEngineLayout struct {
	name             string
	tShards, uShards int
	resources        string
	algorithm        string
	bind             bool
	maxCon           int
	remote           bool
}

// rangeProperties lay ids out over four shards by range: below 4, 4–7,
// 8–11 and from 12 (boundary_range); below 1, 1–4, 5–8 and from 9
// (volume_range).
var rangeProperties = map[string]string{
	"boundary_range": `"sharding-ranges" = "4, 8, 12"`,
	"volume_range":   `"range-lower" = 1, "range-upper" = 9, "sharding-volume" = 4`,
}

var oneEngineLayouts = []oneEngineLayout{
	{name: oneShard, tShards: 1, uShards: 1, resources: "ds0, ds1"},
	{name: oneSource, tShards: 4, uShards: 4, resources: "ds0"},
	{name: twoSources, tShards: 4, uShards: 4, resources: "ds0, ds1"},
	{name: bound, tShards: 4, uShards: 4, resources: "ds0, ds1", bind: true},
	{name: uAtThree, tShards: 4, uShards: 3, resources: "ds0, ds1"},
}

// oneEngineJoins are joins of t with itself, with u (t's rows) and with
// the broadcast d. refused lists the layouts whose router refuses the join
// with route.ErrNotColocated: the union of its units could not be one
// engine's answer there. routes holds, per layout, the route's kind and
// unit count.
var oneEngineJoins = []struct {
	sql, placeholders string
	args              []Value
	refused           []string
	routes            map[string]string
}{
	{"SELECT a.id, b.id FROM t a JOIN t b ON a.k = b.k", "", nil, []string{oneSource, twoSources, bound, uAtThree}, nil},
	{"SELECT a.id, b.id FROM t a JOIN t b ON a.id = b.v", "", nil, []string{oneSource, twoSources, bound, uAtThree}, nil},
	{"SELECT a.id, b.id FROM t a JOIN t b ON a.id = b.id + 1 WHERE a.id < 4",
		"SELECT a.id, b.id FROM t a JOIN t b ON a.id = b.id + ? WHERE a.id < ?", []Value{Int(1), Int(4)}, []string{oneSource, twoSources, bound, uAtThree}, nil},
	{"SELECT t.id, u.id FROM t JOIN u ON t.k = u.k", "", nil, []string{twoSources, bound, uAtThree},
		map[string]string{oneSource: "cartesian 16"}},
	{"SELECT t.id, u.id FROM t JOIN u ON t.id = u.id", "", nil, []string{twoSources, uAtThree},
		map[string]string{oneSource: "cartesian 16", bound: "binding 4"}},
	{"SELECT t.id, u.id FROM t LEFT JOIN u ON t.id = u.id AND t.id = 3",
		"SELECT t.id, u.id FROM t LEFT JOIN u ON t.id = u.id AND t.id = ?", []Value{Int(3)}, []string{oneSource, twoSources, uAtThree},
		map[string]string{bound: "binding 4"}},
	{"SELECT a.id, b.id FROM t a LEFT JOIN t b ON a.id = b.id AND b.id = 3",
		"SELECT a.id, b.id FROM t a LEFT JOIN t b ON a.id = b.id AND b.id = ?", []Value{Int(3)}, nil,
		map[string]string{twoSources: "binding 4"}},
	{"SELECT t.id, u.id FROM t RIGHT JOIN u ON t.id = u.id AND t.id = 3",
		"SELECT t.id, u.id FROM t RIGHT JOIN u ON t.id = u.id AND t.id = ?", []Value{Int(3)}, []string{oneSource, twoSources, uAtThree},
		map[string]string{bound: "binding 4"}},
	{"SELECT t.id, u.id FROM t LEFT JOIN u ON t.k = u.id", "", nil, []string{oneSource, twoSources, bound, uAtThree}, nil},
	{"SELECT d.k, t.id FROM d LEFT JOIN t ON d.k = t.k", "", nil, []string{oneSource, twoSources, bound, uAtThree}, nil},
	{"SELECT a.id, b.v FROM t a JOIN t b ON a.id = b.id", "", nil, nil,
		map[string]string{twoSources: "binding 4", bound: "binding 4"}},
	{"SELECT t.id, u.v FROM t, u WHERE t.id = u.id", "", nil, []string{twoSources, uAtThree},
		map[string]string{bound: "binding 4"}},
	{"SELECT t.id, u.id FROM t JOIN u ON t.id = u.k", "", nil, []string{twoSources, bound, uAtThree}, nil},
	{"SELECT t.id, d.w FROM t LEFT JOIN d ON t.k = d.k", "", nil, nil,
		map[string]string{twoSources: "broadcast 4"}},
}

// TestJoinsMatchOneEngine runs every join in every layout — both dialects,
// literal and placeholder form, first and second execution — and holds
// each answer to one sqlexec.Processor holding the same rows, or to
// route.ErrNotColocated where the join lists the layout as refused. At one
// shard every join answers.
func TestJoinsMatchOneEngine(t *testing.T) {
	ref := oneEngineRef(t)
	for _, dialect := range []string{"mysql", "postgresql"} {
		for _, layout := range oneEngineLayouts {
			s := layoutDB(t, dialect, layout)
			for _, c := range oneEngineJoins {
				want, err := ref.Execute(c.sql)
				if err != nil {
					t.Fatalf("reference %q: %v", c.sql, err)
				}
				refused := slices.Contains(c.refused, layout.name)
				for _, form := range []struct {
					sql  string
					args []Value
				}{{c.sql, nil}, {cmp.Or(c.placeholders, c.sql), c.args}} {
					where := fmt.Sprintf("%s, %s: %s %v", dialect, layout.name, form.sql, form.args)
					if want, ok := c.routes[layout.name]; ok {
						stmt, err := sqlparser.Parse(form.sql)
						if err != nil {
							t.Fatal(err)
						}
						got := "refused"
						if res, err := s.inner.Kernel().Router().Route(stmt, form.args, nil); err == nil {
							got = fmt.Sprintf("%v %d", res.Kind, len(res.Units))
						}
						if got != want {
							t.Errorf("%s: route %s, want %s", where, got, want)
						}
					}
					for exec := 1; exec <= 2; exec++ {
						got, err := s.QueryAll(form.sql, form.args...)
						switch {
						case refused && !errors.Is(err, route.ErrNotColocated):
							t.Errorf("%s, execution %d: answered %v %v, want route.ErrNotColocated", where, exec, got, err)
						case refused:
						case err != nil:
							t.Errorf("%s, execution %d: %v", where, exec, err)
						default:
							if msg := sameAnswer(got, want.Rows, nil); msg != "" {
								t.Errorf("%s, execution %d: %s\n got %v\nwant %v", where, exec, msg, got, want.Rows)
							}
						}
					}
				}
			}
		}
	}
}

// oneEngineFailures are writes a single engine rejects whole or, with ds1
// broken, that fail on ds1's units while ds0's succeed. A multi-row INSERT
// carries a duplicate of id 1 in its first, middle or last row.
var oneEngineFailures = []struct {
	sql   string
	fault bool // ds1 fails the statement's units, after the calls its transaction type makes before them
}{
	{"INSERT INTO t (id, k, v) VALUES (1, 0, 0), (13, 1, 13), (14, 2, 14), (15, 0, 15), (16, 1, 16)", false},
	{"INSERT INTO t (id, k, v) VALUES (13, 1, 13), (14, 2, 14), (1, 0, 0), (15, 0, 15), (16, 1, 16)", false},
	{"INSERT INTO t (id, k, v) VALUES (13, 1, 13), (14, 2, 14), (15, 0, 15), (16, 1, 16), (1, 0, 0)", false},
	{"UPDATE t SET v = v + 100 WHERE k = 1", true},
	{"DELETE FROM t WHERE k = 2", true},
}

// TestFailedWriteLeavesOneEngineTable runs writes that fail part-way
// outside a transaction — the table in one shard and in four over two
// sources, both dialects, each transaction type — and after each compares
// the whole table with one sqlexec.Processor that ran the same statements:
// a write the kernel fails must leave no effect of the units that
// succeeded.
func TestFailedWriteLeavesOneEngineTable(t *testing.T) {
	for _, dialect := range []string{"mysql", "postgresql"} {
		for _, shards := range []int{1, 4} {
			for _, txType := range []string{"LOCAL", "XA", "BASE"} {
				ref := oneEngineRef(t)
				s := oneEngineDB(t, dialect, shards)
				if _, err := s.Exec("SET VARIABLE transaction_type = " + txType); err != nil {
					t.Fatal(err)
				}
				// Under LOCAL and XA the branch's BEGIN or XA BEGIN rides the
				// statement's window, ds1's first call, so every call fails.
				// BASE answers BEGIN and one before-image read per unit
				// (four shards put two on ds1) before the units.
				fault := "ERROR_RATE = 1"
				if txType == "BASE" {
					fault = "BREAK_AFTER = 3"
				}
				for _, c := range oneEngineFailures {
					where := fmt.Sprintf("%s, %d shard(s), %s: %s", dialect, shards, txType, c.sql)
					if c.fault {
						if _, err := s.Exec("INJECT FAULT ds1 (" + fault + ")"); err != nil {
							t.Fatal(err)
						}
					}
					_, err := s.Exec(c.sql)
					if c.fault {
						if _, rerr := s.Exec("REMOVE FAULT ds1"); rerr != nil {
							t.Fatal(rerr)
						}
						var ue *exec.UnitError
						var ie *chaos.InjectedError
						if shards > 1 && (!errors.As(err, &ue) || ue.DataSource != "ds1" || !errors.As(err, &ie)) {
							t.Fatalf("%s: want the injected break on a ds1 unit, got %v", where, err)
						}
					}
					if err == nil || !c.fault {
						if _, rerr := ref.Execute(c.sql); (rerr == nil) != (err == nil) {
							t.Fatalf("%s: kernel error %v, one engine %v", where, err, rerr)
						}
					}
					got, err := s.QueryAll("SELECT id, k, v FROM t ORDER BY id")
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					want, err := ref.Execute("SELECT id, k, v FROM t ORDER BY id")
					if err != nil {
						t.Fatal(err)
					}
					if msg := sameAnswer(got, want.Rows, []int{0}); msg != "" {
						t.Fatalf("%s: %s\n got %v\nwant %v", where, msg, got, want.Rows)
					}
				}
			}
		}
	}
}

// TestConcurrentTransfersConserveSum: two writer sessions move amounts of v
// between rows of t, each transfer one transaction that touches its lower
// id first, under each transaction type, with t in one shard and in four
// over two sources, embedded and on remote nodes. v sums to 78 before and
// must after: no committed write is lost or written back.
func TestConcurrentTransfersConserveSum(t *testing.T) {
	for _, remote := range []bool{false, true} {
		for _, shards := range []int{1, 4} {
			for _, txType := range []string{"LOCAL", "XA", "BASE"} {
				where := fmt.Sprintf("remote %v, %d shard(s), %s", remote, shards, txType)
				s := layoutDB(t, "mysql", oneEngineLayout{tShards: shards, uShards: shards, resources: "ds0, ds1", remote: remote})
				errs := make(chan error, 2)
				for w := int64(0); w < 2; w++ {
					go func() {
						sess := &Session{inner: s.inner.Kernel().NewSession()}
						defer sess.Close()
						errs <- func() error {
							if _, err := sess.Exec("SET VARIABLE transaction_type = " + txType); err != nil {
								return err
							}
							for i := int64(0); i < 100; i++ {
								lo := 1 + (i+w)%3 // ids lo < lo+1, both among 1 to 4
								amount := Int((1 + i%5) * (1 - 2*w))
								if err := sess.WithTx(func(tx *Session) error {
									if _, err := tx.Exec("UPDATE t SET v = v - ? WHERE id = ?", amount, Int(lo)); err != nil {
										return err
									}
									_, err := tx.Exec("UPDATE t SET v = v + ? WHERE id = ?", amount, Int(lo+1))
									return err
								}); err != nil {
									return err
								}
							}
							return nil
						}()
					}()
				}
				for w := 0; w < 2; w++ {
					if err := <-errs; err != nil {
						t.Fatalf("%s: %v", where, err)
					}
				}
				got, err := s.QueryAll("SELECT SUM(v) FROM t")
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if got[0][0].AsInt() != 78 {
					t.Errorf("%s: v sums to %v, want 78", where, got[0][0])
				}
			}
		}
	}
}

// oneEngineRef is one sqlexec.Processor holding the tables load fills.
func oneEngineRef(t testing.TB) *sqlexec.Session {
	t.Helper()
	ref := sqlexec.NewProcessor(storage.NewEngine("ref")).NewSession()
	load(t, func(sql string, args ...Value) error { _, err := ref.Execute(sql, args...); return err })
	return ref
}

// oneEngineDB opens two embedded sources of the dialect with tables t, u
// and f each sharded by hash_mod into the given number of shards over both
// sources and d broadcast, loaded as oneEngineRef is.
func oneEngineDB(t testing.TB, dialect string, shards int) *Session {
	return layoutDB(t, dialect, oneEngineLayout{tShards: shards, uShards: shards, resources: "ds0, ds1"})
}

// layoutDB is oneEngineDB with t, f and u laid out by l.
func layoutDB(t testing.TB, dialect string, l oneEngineLayout) *Session {
	t.Helper()
	sources := []DataSourceConfig{{Name: "ds0", Dialect: dialect}, {Name: "ds1", Dialect: dialect}}
	if l.remote {
		for i := range sources {
			srv := proxy.NewServer(&proxy.NodeBackend{Processor: sqlexec.NewProcessor(storage.NewEngine(sources[i].Name))})
			addr, err := srv.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Close)
			sources[i].Addr = addr
		}
	}
	db, err := Open(Config{DataSources: sources, MaxCon: cmp.Or(l.maxCon, 4)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	s := db.Session()
	rules := []string{"CREATE BROADCAST TABLE RULE d"}
	algorithm := cmp.Or(l.algorithm, "hash_mod")
	for table, shards := range map[string]int{"t": l.tShards, "f": l.tShards, "u": l.uShards} {
		props := fmt.Sprintf(`"sharding-count" = %d`, shards)
		if p, ok := rangeProperties[algorithm]; ok {
			props += ", " + p
		}
		rules = append(rules, fmt.Sprintf(`CREATE SHARDING TABLE RULE %s (RESOURCES(%s), SHARDING_COLUMN = id, TYPE = %s, PROPERTIES(%s))`, table, l.resources, algorithm, props))
	}
	if l.bind {
		rules = append(rules, "CREATE BINDING TABLE RULES (t, u)")
	}
	for _, rule := range rules {
		if _, err := s.Exec(rule); err != nil {
			t.Fatal(err)
		}
	}
	load(t, func(sql string, args ...Value) error { _, err := s.Exec(sql, args...); return err })
	return s
}

// load creates and fills tables t and u with oneEngineRows, f with
// oneEngineFloats and d with k 0 to 3 (each k of t, and one no row of t
// has) through exec.
func load(t testing.TB, exec func(sql string, args ...Value) error) {
	t.Helper()
	for _, stmt := range []string{"CREATE TABLE t (id INT PRIMARY KEY, k INT, v INT)", "CREATE TABLE u (id INT PRIMARY KEY, k INT, v INT)",
		"CREATE TABLE f (id INT PRIMARY KEY, x DOUBLE)", "CREATE TABLE d (k INT PRIMARY KEY, w INT)"} {
		if err := exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range oneEngineRows() {
		for _, table := range []string{"t", "u"} {
			if err := exec("INSERT INTO "+table+" (id, k, v) VALUES (?, ?, ?)", Int(r[0]), Int(r[1]), Int(r[2])); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k := int64(0); k <= 3; k++ {
		if err := exec("INSERT INTO d (k, w) VALUES (?, ?)", Int(k), Int(k*10)); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range oneEngineFloats() {
		if err := exec("INSERT INTO f (id, x) VALUES (?, ?)", r...); err != nil {
			t.Fatal(err)
		}
	}
}

// project keeps the given columns of every row (nil: all of them).
func project(rows []Row, cols []int) []Row {
	if cols == nil {
		return rows
	}
	out := make([]Row, len(rows))
	for i, r := range rows {
		for _, c := range cols {
			out[i] = append(out[i], r[c])
		}
	}
	return out
}

// sameAnswer compares two results as multisets and, on the key columns, as
// sequences; it describes the first difference, or returns "".
func sameAnswer(got, want []Row, keys []int) string {
	render := func(rows []Row, cols []int) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			var parts []string
			for j, v := range r {
				if cols == nil || slices.Contains(cols, j) {
					parts = append(parts, v.SQLLiteral())
				}
			}
			out[i] = strings.Join(parts, ", ")
		}
		return out
	}
	g, w := render(got, nil), render(want, nil)
	slices.Sort(g)
	slices.Sort(w)
	if !slices.Equal(g, w) {
		return "different rows"
	}
	if keys != nil && !slices.Equal(render(got, keys), render(want, keys)) {
		return fmt.Sprintf("different order on columns %v", keys)
	}
	return ""
}

// TestOnlyALiveCursorPinsItsConnection: a point select whose result
// arrives materialized, as an embedded node's does, has freed its
// connection before the client reads a row; a remote node's live cursor
// keeps its connection checked out until the client closes it.
func TestOnlyALiveCursorPinsItsConnection(t *testing.T) {
	for _, remote := range []bool{false, true} {
		s := layoutDB(t, "mysql", oneEngineLayout{tShards: 4, uShards: 4, resources: "ds0, ds1", remote: remote})
		inUse := func() int64 {
			var n int64
			for _, name := range []string{"ds0", "ds1"} {
				ds, err := s.inner.Kernel().Executor().Source(name)
				if err != nil {
					t.Fatal(err)
				}
				n += ds.Stats().InUse
			}
			return n
		}
		rs, err := s.inner.Query("SELECT v FROM t WHERE id = ?", Int(3))
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if remote {
			want = 1
		}
		if n := inUse(); n != want {
			t.Errorf("remote=%v: %d connections in use before the read, want %d", remote, n, want)
		}
		if rows, err := resource.ReadAll(rs); err != nil || len(rows) != 1 {
			t.Fatalf("remote=%v: rows %v, %v", remote, rows, err)
		}
		if n := inUse(); n != 0 {
			t.Errorf("remote=%v: %d connections in use after the close", remote, n)
		}
	}
}

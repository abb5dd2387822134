package shardingdb

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"shardingsphere/internal/chaos"
	"shardingsphere/internal/core"
	"shardingsphere/internal/exec"
	"shardingsphere/internal/proxy"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/route"
	"shardingsphere/internal/sights"
	"shardingsphere/internal/sqlexec"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
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

// oneEngineFloats is table f: x is a DOUBLE holding 2, 2.5 and 2 again,
// the integer written 2 stored as 2.0 too.
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
	// 2 and 2.0 on different units are one value: the grouped expression
	// is the INT 2 on odd ids and the DOUBLE x on even ones.
	{"SELECT x, COUNT(*) FROM f GROUP BY x ORDER BY COUNT(*)", "SELECT x, COUNT(*) FROM f GROUP BY x ORDER BY COUNT(*)", nil, []int{0, 1}, nil},
	{"SELECT CASE WHEN id % 2 = 1 THEN 2 ELSE x END g, COUNT(*) FROM f GROUP BY CASE WHEN id % 2 = 1 THEN 2 ELSE x END ORDER BY COUNT(*)",
		"SELECT CASE WHEN id % ? = 1 THEN 2 ELSE x END g, COUNT(*) FROM f GROUP BY CASE WHEN id % ? = 1 THEN 2 ELSE x END ORDER BY COUNT(*)",
		[]Value{Int(2), Int(2)}, []int{0, 1}, nil},
	{"SELECT DISTINCT CASE WHEN id % 2 = 1 THEN 2 ELSE x END FROM f ORDER BY 1",
		"SELECT DISTINCT CASE WHEN id % ? = 1 THEN 2 ELSE x END FROM f ORDER BY 1", []Value{Int(2)}, []int{0}, nil},
	// The units select the ORDER BY key too, so only the merger sees k alone.
	{"SELECT DISTINCT k FROM t ORDER BY v", "SELECT DISTINCT k FROM t ORDER BY v", nil, nil, nil},
	// The keys are selected, so the merger dedupes as it streams: one run
	// of equal keys at a time, whose rows may differ in another column.
	{"SELECT DISTINCT k FROM t ORDER BY k", "SELECT DISTINCT k FROM t ORDER BY k", nil, []int{0}, nil},
	{"SELECT DISTINCT k, v % 3 FROM t ORDER BY k", "SELECT DISTINCT k, v % ? FROM t ORDER BY k", []Value{Int(3)}, []int{0}, nil},
	// Compare orders '9' < 9.5 < '10' < '9': no order of these keys is
	// sorted, so the merger dedupes them in memory.
	{"SELECT DISTINCT CASE WHEN id % 3 = 0 THEN '10' WHEN id % 3 = 1 THEN '9' ELSE 9.5 END x FROM t ORDER BY x",
		"SELECT DISTINCT CASE WHEN id % ? = 0 THEN '10' WHEN id % ? = 1 THEN '9' ELSE 9.5 END x FROM t ORDER BY x", []Value{Int(3), Int(3)}, nil, nil},
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
	// A sharding value is read as the key's kind, however it is spelled.
	{"SELECT id FROM t WHERE id = '07'", "SELECT id FROM t WHERE id = ?", []Value{String("07")}, nil, nil},
	{"SELECT id FROM t WHERE id = ' 7'", "SELECT id FROM t WHERE id = ?", []Value{String(" 7")}, nil, nil},
	{"SELECT id FROM t WHERE id = '7.0'", "SELECT id FROM t WHERE id = ?", []Value{String("7.0")}, nil, nil},
	{"SELECT id FROM t WHERE id = TRUE", "SELECT id FROM t WHERE id = ?", []Value{Bool(true)}, nil, nil},
	{"SELECT id FROM t WHERE id IN ('07', 8.0)", "SELECT id FROM t WHERE id IN (?, ?)", []Value{String("07"), Float(8)}, nil, nil},
}

// TestRowsMatchOneEngine runs every statement through the kernel — the
// table in one shard and in four over two sources, by hash_mod, mod and
// the two range algorithms, both sources MySQL or both PostgreSQL, literal and
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
			{"4 shards by mod", oneEngineLayout{tShards: 4, uShards: 4, resources: "ds0, ds1", algorithm: "mod"}, false},
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
	node             func(*storage.Engine) // sees each remote node's engine before it serves
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

// oneEngineAlgorithms are the four algorithms t is laid out by at four shards.
var oneEngineAlgorithms = []string{"hash_mod", "mod", "boundary_range", "volume_range"}

// TestWritesKeepTheirKey: a sharding value is stored as the key's kind, so
// an INSERT of '020' into an INT key is the row WHERE id = 20 finds, as on
// one engine, and a value the kind refuses fails the INSERT with
// sqltypes.ErrCoerce and leaves no row.
func TestWritesKeepTheirKey(t *testing.T) {
	for _, dialect := range []string{"mysql", "postgresql"} {
		for _, algorithm := range oneEngineAlgorithms {
			where := fmt.Sprintf("%s, %s", dialect, algorithm)
			ref := oneEngineRef(t)
			s := layoutDB(t, dialect, oneEngineLayout{tShards: 4, uShards: 4, resources: "ds0, ds1", algorithm: algorithm})
			for _, form := range []struct {
				sql  string
				args []Value
			}{{"INSERT INTO t (id, k, v) VALUES ('020', 0, 0)", nil}, {"INSERT INTO u (id, k, v) VALUES (?, ?, ?)", []Value{String("020"), Int(0), Int(0)}}} {
				if _, err := s.Exec(form.sql, form.args...); err != nil {
					t.Fatalf("%s: %s: %v", where, form.sql, err)
				}
				if _, err := ref.Execute(form.sql, form.args...); err != nil {
					t.Fatal(err)
				}
			}
			for _, table := range []string{"t", "u"} {
				q := "SELECT id, k, v FROM " + table + " WHERE id = 20"
				got, err := s.QueryAll(q)
				if err != nil {
					t.Fatalf("%s: %s: %v", where, q, err)
				}
				want, err := ref.Execute(q)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != 1 || got[0][0] != Int(20) || sameAnswer(got, want.Rows, nil) != "" {
					t.Errorf("%s: %s: %v, one engine %v; want the row of the INT 20", where, q, got, want.Rows)
				}
			}
			for _, form := range []struct {
				sql  string
				args []Value
			}{{"INSERT INTO t (id, k, v) VALUES (21, 'abc', 2.7)", nil}, {"INSERT INTO t (id, k, v) VALUES ('abc', 1, 1)", nil},
				{"INSERT INTO t (id, k, v) VALUES (?, ?, ?)", []Value{Float(21.5), Int(1), Int(1)}}} {
				if _, err := s.Exec(form.sql, form.args...); !errors.Is(err, sqltypes.ErrCoerce) {
					t.Errorf("%s: %s %v: %v, want sqltypes.ErrCoerce", where, form.sql, form.args, err)
				}
				if _, err := ref.Execute(form.sql, form.args...); !errors.Is(err, sqltypes.ErrCoerce) {
					t.Errorf("one engine: %s %v: %v, want sqltypes.ErrCoerce", form.sql, form.args, err)
				}
			}
			got, err := s.QueryAll("SELECT COUNT(*) FROM t WHERE id >= 21")
			if err != nil || got[0][0] != Int(0) {
				t.Errorf("%s: the refused INSERTs left %v rows, %v", where, got, err)
			}
		}
	}
}

// TestVarcharKeyHasOneAnswer: on a VARCHAR sharding key a number compares
// with each value as its number, so c = 7 names '7', '07', '7.0' and ' 7',
// which hash_mod spreads over several shards. The kernel must answer what
// the full-scan form (c + 0) answers, and so must one engine.
func TestVarcharKeyHasOneAnswer(t *testing.T) {
	ref := oneEngineRef(t)
	s := oneEngineDB(t, "mysql", 4)
	for _, sql := range []string{
		`CREATE SHARDING TABLE RULE s (RESOURCES(ds0, ds1), SHARDING_COLUMN = c, TYPE = hash_mod, PROPERTIES("sharding-count" = 4))`,
		"CREATE TABLE s (c VARCHAR(8) PRIMARY KEY, n INT)",
	} {
		if _, err := s.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ref.Execute("CREATE TABLE s (c VARCHAR(8) PRIMARY KEY, n INT)"); err != nil {
		t.Fatal(err)
	}
	for i, c := range []string{"7", "07", "7.0", " 7", "8", "10"} {
		for _, exec := range []func(string, ...Value) error{
			func(sql string, args ...Value) error { _, err := s.Exec(sql, args...); return err },
			func(sql string, args ...Value) error { _, err := ref.Execute(sql, args...); return err },
		} {
			if err := exec("INSERT INTO s (c, n) VALUES (?, ?)", String(c), Int(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	seven, eight := Int(7), Int(8)
	for _, c := range []struct {
		cond, scan string
		args       []Value
	}{
		{"c = 7", "c + 0 = 7", nil},
		{"c = ?", "c + 0 = ?", []Value{seven}},
		{"c IN (7, 8)", "c + 0 IN (7, 8)", nil},
		{"c IN (?, ?)", "c + 0 IN (?, ?)", []Value{seven, eight}},
		{"c >= 8", "c + 0 >= 8", nil},
		{"c >= ?", "c + 0 >= ?", []Value{eight}},
	} {
		want, err := s.QueryAll("SELECT c, n FROM s WHERE "+c.scan, c.args...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.QueryAll("SELECT c, n FROM s WHERE "+c.cond, c.args...)
		if err != nil {
			t.Fatalf("%s: %v", c.cond, err)
		}
		one, err := ref.Execute("SELECT c, n FROM s WHERE "+c.cond, c.args...)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || sameAnswer(got, want, nil) != "" || sameAnswer(one.Rows, want, nil) != "" {
			t.Errorf("WHERE %s %v: kernel %v, one engine %v; the full scan finds %v", c.cond, c.args, got, one.Rows, want)
		}
	}
}

// oneEngineFailures are writes a single engine rejects whole or, with ds1
// broken, that fail on ds1's units while ds0's succeed, and reads that
// fail on ds1 while ds0's windows answer. A multi-row INSERT carries a
// duplicate of id 1 in its first, middle or last row.
var oneEngineFailures = []struct {
	sql   string
	fault bool // ds1 fails the statement's units, after the calls its transaction type makes before them
}{
	{"INSERT INTO t (id, k, v) VALUES (1, 0, 0), (13, 1, 13), (14, 2, 14), (15, 0, 15), (16, 1, 16)", false},
	{"INSERT INTO t (id, k, v) VALUES (13, 1, 13), (14, 2, 14), (1, 0, 0), (15, 0, 15), (16, 1, 16)", false},
	{"INSERT INTO t (id, k, v) VALUES (13, 1, 13), (14, 2, 14), (15, 0, 15), (16, 1, 16), (1, 0, 0)", false},
	{"UPDATE t SET v = v + 100 WHERE k = 1", true},
	{"DELETE FROM t WHERE k = 2", true},
	{"SELECT id, v FROM t", true},
	{"SELECT id, v FROM t ORDER BY v DESC", true},
	{"SELECT COUNT(*), SUM(v) FROM t", true},
}

// TestFailedWriteLeavesOneEngineTable runs statements that fail part-way —
// the table in one shard and in four over two sources, both dialects, each
// transaction type, on embedded sources and on remote nodes — and after
// each compares the whole table with one sqlexec.Processor that ran the
// same statements: a write the kernel fails must leave no effect of the
// units that succeeded. Each statement runs twice: alone, and inside BEGIN,
// followed by a good INSERT and COMMIT, where the failed statement must
// leave nothing and the transaction go on to commit the good write, as on
// the one engine. Inside BEGIN a read follows an UPDATE of every row, which
// the COMMIT must keep: a failed read leaves the transaction usable.
func TestFailedWriteLeavesOneEngineTable(t *testing.T) {
	for _, remote := range []bool{false, true} {
		for _, dialect := range []string{"mysql", "postgresql"} {
			for _, shards := range []int{1, 4} {
				for _, txType := range []string{"LOCAL", "XA", "BASE"} {
					t.Run(fmt.Sprintf("%s/%d/%s/remote=%v", dialect, shards, txType, remote), func(t *testing.T) {
						failedWritesAgainstOneEngine(t, dialect, shards, txType, remote)
					})
				}
			}
		}
	}
}

func failedWritesAgainstOneEngine(t *testing.T, dialect string, shards int, txType string, remote bool) {
	ref := oneEngineRef(t)
	s := layoutDB(t, dialect, oneEngineLayout{tShards: shards, uShards: shards, resources: "ds0, ds1", remote: remote})
	if _, err := s.Exec("SET VARIABLE transaction_type = " + txType); err != nil {
		t.Fatal(err)
	}
	// Under LOCAL and XA the branch's BEGIN or XA BEGIN rides the
	// statement's window, ds1's first call, so every call fails. BASE
	// answers BEGIN and one before-image read per written unit (four shards
	// put two on ds1) before the units, and BEGIN alone before a read's.
	fault, readFault := "ERROR_RATE = 1", "ERROR_RATE = 1"
	if txType == "BASE" {
		fault, readFault = "BREAK_AFTER = 3", "BREAK_AFTER = 1"
	}
	refTable := func() []Row {
		t.Helper()
		res, err := ref.Execute("SELECT id, k, v FROM t ORDER BY id")
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows
	}
	for i, c := range oneEngineFailures {
		read := strings.HasPrefix(c.sql, "SELECT")
		for _, inTx := range []bool{false, true} {
			where := fmt.Sprintf("in a transaction %v: %s", inTx, c.sql)
			good := Int(100 + int64(i))
			if inTx {
				if _, err := s.Exec("BEGIN"); err != nil {
					t.Fatal(err)
				}
				if _, err := ref.Execute("BEGIN"); err != nil {
					t.Fatal(err)
				}
				if read {
					const earlier = "UPDATE t SET v = v + 1000"
					if _, err := s.Exec(earlier); err != nil {
						t.Fatalf("%s: the write before it: %v", where, err)
					}
					if _, err := ref.Execute(earlier); err != nil {
						t.Fatal(err)
					}
				}
			}
			refBefore := refTable()
			if c.fault {
				f := fault
				if read {
					f = readFault
				}
				if _, err := s.Exec("INJECT FAULT ds1 (" + f + ")"); err != nil {
					t.Fatal(err)
				}
			}
			var err error
			if read {
				_, err = s.QueryAll(c.sql)
			} else {
				_, err = s.Exec(c.sql)
			}
			if c.fault {
				// The failures may have opened ds1's breaker; an operator
				// releases it with the fault.
				for _, sql := range []string{"REMOVE FAULT ds1", "SET VARIABLE circuit_break = 'ds1:off'"} {
					if _, rerr := s.Exec(sql); rerr != nil {
						t.Fatal(rerr)
					}
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
			if inTx {
				const insert = "INSERT INTO t (id, k, v) VALUES (?, 1, 1)"
				if _, err := s.Exec(insert, good); err != nil {
					t.Fatalf("%s: the good INSERT after it: %v", where, err)
				}
				if _, err := s.Exec("COMMIT"); err != nil {
					t.Fatalf("%s: COMMIT: %v", where, err)
				}
				if _, err := ref.Execute(insert, good); err != nil {
					t.Fatal(err)
				}
				if _, err := ref.Execute("COMMIT"); err != nil {
					t.Fatal(err)
				}
				// Of a statement that failed, the one engine keeps nothing.
				after := refTable()
				if msg := sameAnswer(after, append(refBefore, Row{good, Int(1), Int(1)}), []int{0}); err != nil && msg != "" {
					t.Fatalf("%s: the one engine keeps %v: %s", where, after, msg)
				}
			}
			want := refTable()
			got, err := s.QueryAll("SELECT id, k, v FROM t ORDER BY id")
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if msg := sameAnswer(got, want, []int{0}); msg != "" {
				t.Fatalf("%s: %s\n got %v\nwant %v", where, msg, got, want)
			}
		}
	}
}

// TestUnundoableStatementAbortsTransaction: a chaos fault breaks ds0's
// connection on the call after its window of a failing split INSERT, which
// is the ROLLBACK TO SAVEPOINT that would undo the window. The branch can
// no longer be undone, so the transaction is rollback-only: the next
// statement and COMMIT answer core.ErrTxAborted, and the table is as it was
// before BEGIN, the write before the failure included. BASE answers one
// call, its BEGIN, before the window.
func TestUnundoableStatementAbortsTransaction(t *testing.T) {
	for _, remote := range []bool{false, true} {
		for _, txType := range []string{"LOCAL", "XA", "BASE"} {
			where := fmt.Sprintf("remote %v, %s", remote, txType)
			s := layoutDB(t, "mysql", oneEngineLayout{tShards: 4, uShards: 4, resources: "ds0, ds1", remote: remote})
			before, err := s.QueryAll("SELECT id, k, v FROM t ORDER BY id")
			if err != nil {
				t.Fatal(err)
			}
			fault := "BREAK_AFTER = 1"
			if txType == "BASE" {
				fault = "BREAK_AFTER = 2"
			}
			// The first fault wires the injector into the connections ds0
			// hands out from then on, the transaction's among them.
			for _, sql := range []string{"INJECT FAULT ds0 (ERROR_RATE = 0)", "REMOVE FAULT ds0",
				"SET VARIABLE transaction_type = " + txType, "BEGIN", "UPDATE t SET v = v + 1", "INJECT FAULT ds0 (" + fault + ")"} {
				if _, err := s.Exec(sql); err != nil {
					t.Fatalf("%s: %s: %v", where, sql, err)
				}
			}
			_, err = s.Exec(oneEngineFailures[1].sql)
			if _, rerr := s.Exec("REMOVE FAULT ds0"); rerr != nil {
				t.Fatal(rerr)
			}
			if err == nil || !strings.Contains(err.Error(), storage.ErrDuplicateKey.Error()) {
				t.Fatalf("%s: want the duplicate key, got %v", where, err)
			}
			if _, err := s.QueryAll("SELECT COUNT(*) FROM t"); !errors.Is(err, core.ErrTxAborted) {
				t.Fatalf("%s: the statement after it: %v, want ErrTxAborted", where, err)
			}
			if _, err := s.Exec("COMMIT"); !errors.Is(err, core.ErrTxAborted) {
				t.Fatalf("%s: COMMIT: %v, want ErrTxAborted", where, err)
			}
			after, err := s.QueryAll("SELECT id, k, v FROM t ORDER BY id")
			if err != nil {
				t.Fatalf("%s: after the rollback: %v", where, err)
			}
			if msg := sameAnswer(after, before, []int{0}); msg != "" {
				t.Fatalf("%s: %s\n got %v\nwant %v", where, msg, after, before)
			}
		}
	}
}

// TestFailedPrepareLeavesNoBranchPrepared: under XA on remote nodes, a
// COMMIT whose prepare fails on ds1 by chaos answers only after every
// branch has: its error names ds1's injected fault, no node keeps a
// prepared branch, an UPDATE of every row finds no lock held (the nodes
// wait for none: a held lock fails it at once), and every connection the
// transaction held goes back to its pool. ERROR_RATE = 0.5 under the seed
// found below fails ds1's first call after the injection, the prepare, and
// passes the second, the abort; chaos rolls its seeded generator's Float64
// once per call, and the test checks that it did.
func TestFailedPrepareLeavesNoBranchPrepared(t *testing.T) {
	seed := int64(1)
	for ; ; seed++ {
		r := rand.New(rand.NewSource(seed))
		if r.Float64() < 0.5 && r.Float64() >= 0.5 {
			break
		}
	}
	var engines []*storage.Engine
	s := layoutDB(t, "mysql", oneEngineLayout{tShards: 4, uShards: 4, resources: "ds0, ds1", remote: true,
		node: func(e *storage.Engine) { e.SetLockTimeout(0); engines = append(engines, e) }})
	idle := func(ds string) int {
		src, err := s.inner.Kernel().Executor().Source(ds)
		if err != nil {
			t.Fatal(err)
		}
		return src.Stats().Idle
	}
	// The first fault wires the injector into the connections ds1 hands out
	// from then on, the transaction's among them.
	for _, sql := range []string{"INJECT FAULT ds1 (ERROR_RATE = 0)", "REMOVE FAULT ds1", "SET VARIABLE transaction_type = XA"} {
		if _, err := s.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	before := []int{idle("ds0"), idle("ds1")}
	for _, sql := range []string{"BEGIN", "UPDATE t SET v = v + 1", fmt.Sprintf("INJECT FAULT ds1 (ERROR_RATE = 0.5, SEED = %d)", seed)} {
		if _, err := s.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	_, err := s.Exec("COMMIT")
	st := s.inner.Kernel().Chaos().Statuses()
	if _, rerr := s.Exec("REMOVE FAULT ds1"); rerr != nil {
		t.Fatal(rerr)
	}
	if len(st) != 1 || st[0].Calls != 2 || st[0].Injected != 1 {
		t.Fatalf("want ds1's prepare failed and its abort passed, chaos reads %+v", st)
	}
	var ie *chaos.InjectedError
	if !errors.As(err, &ie) || ie.Source != "ds1" || !strings.Contains(err.Error(), "prepare failed on ds1") {
		t.Errorf("COMMIT: want ds1's injected prepare failure, got %v", err)
	}
	if after := []int{idle("ds0"), idle("ds1")}; !slices.Equal(after, before) {
		t.Errorf("idle connections %v before the transaction, %v after: one was discarded", before, after)
	}
	for _, e := range engines {
		if xids := e.RecoverPrepared(); len(xids) > 0 {
			t.Errorf("%s keeps prepared branches %v", e.Name(), xids)
		}
	}
	if r, err := s.Exec("UPDATE t SET v = v + 1"); err != nil || r.Affected != int64(len(oneEngineRows())) {
		t.Errorf("UPDATE of every row after the failed COMMIT: %+v, %v", r, err)
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
			engine := storage.NewEngine(sources[i].Name)
			if l.node != nil {
				l.node(engine)
			}
			srv := proxy.NewServer(&proxy.NodeBackend{Processor: sqlexec.NewProcessor(engine)})
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

// TestKindsReadAfterAFailedDescribe: a plan compiled while the metadata
// service cannot read the key's kind (its node fails DESCRIBE) routes on
// the value's own form only until the kind can be read again.
func TestKindsReadAfterAFailedDescribe(t *testing.T) {
	s := oneEngineDB(t, "mysql", 4)
	for _, sql := range []string{"CREATE TABLE z (id INT PRIMARY KEY)", "INJECT FAULT ds0 (ERROR_RATE = 1)"} {
		if _, err := s.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	// Compiled under the fault; its answer depends on which node fails.
	_, _ = s.QueryAll("SELECT id FROM t WHERE id = ?", String("07"))
	// The failures opened ds0's breaker; an operator releases it with the
	// fault.
	for _, sql := range []string{"REMOVE FAULT ds0", "SET VARIABLE circuit_break = 'ds0:off'"} {
		if _, err := s.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := s.QueryAll("SELECT id FROM t WHERE id = ?", String("07")); err != nil || len(got) != 1 || got[0][0] != Int(7) {
		t.Fatalf("after the fault: %v, %v; want the row of 7", got, err)
	}
}

// TestSpellingBindsItsOwnLiterals: UPDATE t SET v = v + 1 and v + 2 are two
// spellings of one shape. Once both are kept, five runs of each on one row
// raise its v by 15, and the table matches one engine that ran the same
// statements.
func TestSpellingBindsItsOwnLiterals(t *testing.T) {
	ref := oneEngineRef(t)
	s := oneEngineDB(t, "mysql", 4)
	texts := []string{"UPDATE t SET v = v + 1 WHERE id = ?", "UPDATE t SET v = v + 2 WHERE id = ?"}
	run := func(id int64, times int) {
		t.Helper()
		for i := 0; i < times; i++ {
			for _, q := range texts {
				if _, err := s.Exec(q, Int(id)); err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				if _, err := ref.Execute(q, Int(id)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	v := func(id int64) int64 {
		t.Helper()
		got, err := s.QueryAll("SELECT v FROM t WHERE id = ?", Int(id))
		if err != nil || len(got) != 1 {
			t.Fatalf("v of %d: %v %v", id, got, err)
		}
		return got[0][0].I
	}
	spellings := func() int64 {
		t.Helper()
		metrics, err := s.QueryAll("SHOW METRICS")
		if err != nil {
			t.Fatal(err)
		}
		i := slices.IndexFunc(metrics, func(r Row) bool { return r[2].S == "plan_cache.spellings" })
		if i < 0 {
			t.Fatal("SHOW METRICS has no plan_cache.spellings row")
		}
		return metrics[i][6].I
	}
	loaded := spellings() // the loader's INSERTs are spelled otherwise than their keys
	run(1, sights.Keep)   // both texts are kept from their third sight
	if n := spellings() - loaded; n != 2 {
		t.Fatalf("%d more spellings kept, want 2", n)
	}
	before := v(2)
	run(2, 5)
	if after := v(2); after != before+15 {
		t.Fatalf("five runs of each spelling raised v from %d to %d, want +15", before, after)
	}
	const q = "SELECT id, k, v FROM t ORDER BY id"
	got, err := s.QueryAll(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameAnswer(got, want.Rows, nil); diff != "" {
		t.Fatalf("%s: %s", q, diff)
	}
}

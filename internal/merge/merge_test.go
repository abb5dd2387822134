package merge

import (
	"errors"
	"io"
	"testing"

	"shardingsphere/internal/resource"
	"shardingsphere/internal/rewrite"
	"shardingsphere/internal/sqlexec"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
)

func vi(n int64) sqltypes.Value  { return sqltypes.NewInt(n) }
func vs(s string) sqltypes.Value { return sqltypes.NewString(s) }

func rsOf(cols []string, rows ...sqltypes.Row) resource.ResultSet {
	return resource.NewSliceResultSet(cols, rows)
}

func drain(t *testing.T, rs resource.ResultSet) []sqltypes.Row {
	t.Helper()
	rows, err := resource.ReadAll(rs)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestIterationMerge(t *testing.T) {
	cols := []string{"id"}
	merged, err := Merge([]resource.ResultSet{
		rsOf(cols, sqltypes.Row{vi(1)}, sqltypes.Row{vi(2)}),
		rsOf(cols),
		rsOf(cols, sqltypes.Row{vi(3)}),
	}, &rewrite.SelectContext{})
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, merged)
	if len(rows) != 3 || rows[0][0].I != 1 || rows[2][0].I != 3 {
		t.Fatalf("iteration: %v", rows)
	}
}

func TestSingleNodePassthrough(t *testing.T) {
	cols := []string{"id"}
	in := rsOf(cols, sqltypes.Row{vi(9)})
	merged, err := Merge([]resource.ResultSet{in}, &rewrite.SelectContext{})
	if err != nil {
		t.Fatal(err)
	}
	if merged != in {
		t.Fatal("single node should pass through")
	}
	merged.Close()
}

func TestOrderByStreamMerge(t *testing.T) {
	cols := []string{"id", "name"}
	// Each node returns pre-sorted rows, as real data sources do.
	merged, err := Merge([]resource.ResultSet{
		rsOf(cols, sqltypes.Row{vi(1), vs("a")}, sqltypes.Row{vi(4), vs("d")}),
		rsOf(cols, sqltypes.Row{vi(2), vs("b")}, sqltypes.Row{vi(3), vs("c")}, sqltypes.Row{vi(6), vs("f")}),
		rsOf(cols, sqltypes.Row{vi(5), vs("e")}),
	}, &rewrite.SelectContext{OrderBy: []rewrite.OrderKey{{Index: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, merged)
	for i, r := range rows {
		if r[0].I != int64(i+1) {
			t.Fatalf("order merge: %v", rows)
		}
	}
}

func TestOrderByDescMerge(t *testing.T) {
	cols := []string{"id"}
	merged, err := Merge([]resource.ResultSet{
		rsOf(cols, sqltypes.Row{vi(5)}, sqltypes.Row{vi(1)}),
		rsOf(cols, sqltypes.Row{vi(4)}, sqltypes.Row{vi(2)}),
	}, &rewrite.SelectContext{OrderBy: []rewrite.OrderKey{{Index: 0, Desc: true}}})
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, merged)
	want := []int64{5, 4, 2, 1}
	for i, r := range rows {
		if r[0].I != want[i] {
			t.Fatalf("desc merge: %v", rows)
		}
	}
}

func TestOrderByNameResolution(t *testing.T) {
	cols := []string{"uid", "name"}
	merged, err := Merge([]resource.ResultSet{
		rsOf(cols, sqltypes.Row{vi(2), vs("b")}),
		rsOf(cols, sqltypes.Row{vi(1), vs("a")}),
	}, &rewrite.SelectContext{OrderBy: []rewrite.OrderKey{{Index: -1, Name: "NAME"}}})
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, merged)
	if rows[0][1].S != "a" {
		t.Fatalf("name-resolved merge: %v", rows)
	}
	// Unknown name errors.
	_, err = Merge([]resource.ResultSet{
		rsOf(cols), rsOf(cols),
	}, &rewrite.SelectContext{OrderBy: []rewrite.OrderKey{{Index: -1, Name: "zzz"}}})
	if err == nil {
		t.Fatal("unknown order column must fail")
	}
}

// combineCtx compiles a combine statement over partial columns with the
// given names, as the rewriter does for a grouped statement.
func combineCtx(t *testing.T, sql string, columns ...string) *rewrite.SelectContext {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sqlexec.CompileOutput(stmt.(*sqlparser.SelectStmt), columns)
	if err != nil {
		t.Fatal(err)
	}
	return &rewrite.SelectContext{Combine: out}
}

func TestGlobalAggregateMerge(t *testing.T) {
	cols := []string{"COUNT(*)", "SUM(x)", "MIN(x)", "MAX(x)"}
	ctx := combineCtx(t, "SELECT SUM(c), SUM(s), MIN(lo), MAX(hi), MAX(hi) - MIN(lo) FROM p", "c", "s", "lo", "hi")
	merged, err := Merge([]resource.ResultSet{
		rsOf(cols, sqltypes.Row{vi(2), vi(10), vi(3), vi(7)}),
		rsOf(cols, sqltypes.Row{vi(3), vi(20), vi(1), vi(9)}),
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, merged)
	r := rows[0]
	if len(rows) != 1 || r[0].I != 5 || r[1].I != 30 || r[2].I != 1 || r[3].I != 9 || r[4].I != 8 {
		t.Fatalf("global agg: %v", rows)
	}
}

func TestGlobalAggregateWithNullPartials(t *testing.T) {
	cols := []string{"SUM(x)"}
	ctx := combineCtx(t, "SELECT SUM(s) FROM p", "s")
	merged, err := Merge([]resource.ResultSet{
		rsOf(cols, sqltypes.Row{sqltypes.Null}),
		rsOf(cols, sqltypes.Row{vi(5)}),
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, merged)
	if rows[0][0].I != 5 {
		t.Fatalf("null partial: %v", rows)
	}
}

func TestAvgRecomputedFromPartials(t *testing.T) {
	// Each unit sends AVG(x) as SUM(x), COUNT(x), as the rewriter lays it
	// out; the combine divides the sums' sum by the counts' sum.
	cols := []string{"SUM(x)", "COUNT(x)"}
	ctx := combineCtx(t, "SELECT SUM(s) / SUM(c) AS `AVG(x)` FROM p", "s", "c")
	// Node 1: avg=2 over 3 rows (sum 6); node 2: avg=10 over 1 row.
	// A naive average-of-averages would give 6; the true mean is 4.
	merged, err := Merge([]resource.ResultSet{
		rsOf(cols, sqltypes.Row{vi(6), vi(3)}),
		rsOf(cols, sqltypes.Row{vi(10), vi(1)}),
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, merged)
	if len(rows) != 1 || len(rows[0]) != 1 || rows[0][0].Kind != sqltypes.KindFloat || rows[0][0].F != 4 {
		t.Fatalf("avg merge: %v", rows)
	}
	if got := merged.Columns(); len(got) != 1 || got[0] != "AVG(x)" {
		t.Fatalf("columns: %v", got)
	}
}

func TestGroupMemoryMerge(t *testing.T) {
	// The paper's Fig. 7 data: a group spans nodes, whatever order the
	// nodes return their groups in.
	cols := []string{"name", "SUM(score)"}
	ctx := combineCtx(t, "SELECT name, SUM(s) FROM p GROUP BY name", "name", "s")
	merged, err := Merge([]resource.ResultSet{
		rsOf(cols, sqltypes.Row{vs("tom"), vi(80)}, sqltypes.Row{vs("jerry"), vi(90)}),
		rsOf(cols, sqltypes.Row{vs("jerry"), vi(88)}, sqltypes.Row{vs("tony"), vi(100)}),
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, merged)
	if len(rows) != 3 {
		t.Fatalf("memory groups: %v", rows)
	}
	sums := map[string]int64{}
	for _, r := range rows {
		sums[r[0].S] = r[1].I
	}
	if sums["jerry"] != 178 || sums["tom"] != 80 || sums["tony"] != 100 {
		t.Fatalf("memory group sums: %v", sums)
	}
}

func TestGroupMemoryMergeWithOrderBy(t *testing.T) {
	// HAVING, ORDER BY and LIMIT apply to the merged groups, reading the
	// statement's arguments.
	cols := []string{"name", "SUM(x)"}
	ctx := combineCtx(t, "SELECT name, SUM(s) FROM p GROUP BY name HAVING SUM(s) > ? ORDER BY 2 DESC LIMIT ?", "name", "s")
	ctx.Args = []sqltypes.Value{vi(2), vi(2)}
	merged, err := Merge([]resource.ResultSet{
		rsOf(cols, sqltypes.Row{vs("a"), vi(1)}, sqltypes.Row{vs("b"), vi(10)}, sqltypes.Row{vs("c"), vi(2)}),
		rsOf(cols, sqltypes.Row{vs("a"), vi(2)}, sqltypes.Row{vs("d"), vi(1)}, sqltypes.Row{vs("e"), vi(9)}),
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, merged)
	if len(rows) != 2 || rows[0][0].S != "b" || rows[1][0].S != "e" {
		t.Fatalf("ordered memory groups: %v", rows)
	}
}

func TestLimitDecorator(t *testing.T) {
	cols := []string{"id"}
	mk := func() []resource.ResultSet {
		return []resource.ResultSet{
			rsOf(cols, sqltypes.Row{vi(1)}, sqltypes.Row{vi(3)}, sqltypes.Row{vi(5)}),
			rsOf(cols, sqltypes.Row{vi(2)}, sqltypes.Row{vi(4)}, sqltypes.Row{vi(6)}),
		}
	}
	// Revised pagination: skip offset, take count.
	ctx := &rewrite.SelectContext{
		OrderBy: []rewrite.OrderKey{{Index: 0}},
		Limit:   &rewrite.LimitInfo{Offset: 2, Count: 3, Revised: true},
	}
	merged, err := Merge(mk(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, merged)
	if len(rows) != 3 || rows[0][0].I != 3 || rows[2][0].I != 5 {
		t.Fatalf("revised limit: %v", rows)
	}
	// Unrevised (offset 0): just cap the count.
	ctx = &rewrite.SelectContext{
		OrderBy: []rewrite.OrderKey{{Index: 0}},
		Limit:   &rewrite.LimitInfo{Offset: 0, Count: 2},
	}
	merged, err = Merge(mk(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows = drain(t, merged)
	if len(rows) != 2 || rows[1][0].I != 2 {
		t.Fatalf("capped limit: %v", rows)
	}
}

func TestLimitPastEnd(t *testing.T) {
	cols := []string{"id"}
	ctx := &rewrite.SelectContext{
		Limit: &rewrite.LimitInfo{Offset: 10, Count: 5, Revised: true},
	}
	merged, err := Merge([]resource.ResultSet{
		rsOf(cols, sqltypes.Row{vi(1)}),
		rsOf(cols, sqltypes.Row{vi(2)}),
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, merged)
	if len(rows) != 0 {
		t.Fatalf("past-end limit: %v", rows)
	}
}

func TestDistinctMerge(t *testing.T) {
	cols := []string{"age"}
	ctx := &rewrite.SelectContext{Distinct: true}
	merged, err := Merge([]resource.ResultSet{
		rsOf(cols, sqltypes.Row{vi(25)}, sqltypes.Row{vi(30)}),
		rsOf(cols, sqltypes.Row{vi(25)}, sqltypes.Row{vi(35)}),
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, merged)
	if len(rows) != 3 {
		t.Fatalf("distinct: %v", rows)
	}
	// One engine's value identity: 2 and 2.0 are one value; rows compare
	// on their visible columns, the derived ORDER BY key stripped first.
	ctx = &rewrite.SelectContext{Distinct: true, Derived: 1, OrderBy: []rewrite.OrderKey{{Index: 1}}}
	merged, err = Merge([]resource.ResultSet{
		rsOf([]string{"x", "k"}, sqltypes.Row{vi(2), vi(1)}, sqltypes.Row{sqltypes.NewFloat(2.5), vi(3)}),
		rsOf([]string{"x", "k"}, sqltypes.Row{sqltypes.NewFloat(2), vi(2)}),
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rows := drain(t, merged); len(rows) != 2 || len(rows[0]) != 1 || rows[0][0].I != 2 || rows[1][0].F != 2.5 {
		t.Fatalf("distinct by value: %v", rows)
	}
}

func TestMergeEmptyInput(t *testing.T) {
	merged, err := Merge(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := merged.Next(); !errors.Is(err, io.EOF) {
		t.Fatal("empty merge must EOF")
	}
}

func TestIterationCloseMidway(t *testing.T) {
	cols := []string{"id"}
	merged, err := Merge([]resource.ResultSet{
		rsOf(cols, sqltypes.Row{vi(1)}),
		rsOf(cols, sqltypes.Row{vi(2)}),
	}, &rewrite.SelectContext{Derived: 0, Limit: &rewrite.LimitInfo{Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := merged.Next(); err != nil {
		t.Fatal(err)
	}
	if err := merged.Close(); err != nil {
		t.Fatal(err)
	}
}

// --- close propagation / leak checks ---

// countingRS wraps a result set, counting Close calls and rows served,
// so tests can prove every shard cursor is released exactly once and
// that early-stopped merges never drained the whole source.
type countingRS struct {
	inner  resource.ResultSet
	closes int
	served int
	// failAfter, when > 0, makes NextBatch/Next error once that many
	// rows have been served.
	failAfter int
}

var errInjected = errors.New("injected mid-stream failure")

func (c *countingRS) Columns() []string { return c.inner.Columns() }

func (c *countingRS) Next() (sqltypes.Row, error) {
	if c.failAfter > 0 && c.served >= c.failAfter {
		return nil, errInjected
	}
	row, err := c.inner.Next()
	if err == nil {
		c.served++
	}
	return row, err
}

func (c *countingRS) NextBatch(buf []sqltypes.Row) (int, error) {
	if c.failAfter > 0 {
		if c.served >= c.failAfter {
			return 0, errInjected
		}
		if room := c.failAfter - c.served; room < len(buf) {
			buf = buf[:room]
		}
	}
	n, err := c.inner.NextBatch(buf)
	c.served += n
	return n, err
}

func (c *countingRS) Close() error {
	c.closes++
	return c.inner.Close()
}

// bigSource builds a counting source with rows*[id] ascending from start,
// striding by step (so multiple sources interleave under ORDER BY).
func bigSource(start, step, count int) *countingRS {
	rows := make([]sqltypes.Row, 0, count)
	for i := 0; i < count; i++ {
		rows = append(rows, sqltypes.Row{vi(int64(start + i*step))})
	}
	return &countingRS{inner: rsOf([]string{"id"}, rows...)}
}

// TestLimitEagerCloseStopsSources proves the early-stop chain: the
// moment LIMIT is satisfied, every shard cursor is closed — before the
// caller ever calls Close — and each source served only its prefetch
// window, not its whole result.
func TestLimitEagerCloseStopsSources(t *testing.T) {
	const perSource = 600
	srcs := []*countingRS{bigSource(0, 3, perSource), bigSource(1, 3, perSource), bigSource(2, 3, perSource)}
	merged, err := Merge([]resource.ResultSet{srcs[0], srcs[1], srcs[2]}, &rewrite.SelectContext{
		OrderBy: []rewrite.OrderKey{{Index: 0}},
		Limit:   &rewrite.LimitInfo{Count: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, merged)
	if len(rows) != 3 || rows[0][0].I != 0 || rows[2][0].I != 2 {
		t.Fatalf("limited merge: %v", rows)
	}
	for i, s := range srcs {
		if s.closes != 1 {
			t.Fatalf("source %d: %d closes before merged.Close (want eager close exactly once)", i, s.closes)
		}
		// Each cursor pulls at most its refill window (plus one refill of
		// slack), never the full source.
		if s.served > 2*cursorBatchRows {
			t.Fatalf("source %d served %d rows for a LIMIT 3 (early stop broken)", i, s.served)
		}
	}
	// Closing again is a no-op, not a double close.
	if err := merged.Close(); err != nil {
		t.Fatal(err)
	}
	if err := merged.Close(); err != nil {
		t.Fatal(err)
	}
	for i, s := range srcs {
		if s.closes != 1 {
			t.Fatalf("source %d: %d closes after repeated merged.Close", i, s.closes)
		}
	}
}

// TestLimitEagerCloseViaNextBatch is the same guarantee on the
// batch-at-a-time path the proxy streamer uses.
func TestLimitEagerCloseViaNextBatch(t *testing.T) {
	const perSource = 600
	srcs := []*countingRS{bigSource(0, 2, perSource), bigSource(1, 2, perSource)}
	merged, err := Merge([]resource.ResultSet{srcs[0], srcs[1]}, &rewrite.SelectContext{
		OrderBy: []rewrite.OrderKey{{Index: 0}},
		Limit:   &rewrite.LimitInfo{Offset: 5, Count: 4, Revised: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []sqltypes.Row
	buf := make([]sqltypes.Row, 7)
	for {
		n, err := merged.NextBatch(buf)
		got = append(got, buf[:n]...)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 4 || got[0][0].I != 5 || got[3][0].I != 8 {
		t.Fatalf("batched limit: %v", got)
	}
	for i, s := range srcs {
		if s.closes != 1 {
			t.Fatalf("source %d: closes=%d (want eager close via NextBatch)", i, s.closes)
		}
		if s.served > 2*cursorBatchRows {
			t.Fatalf("source %d served %d rows (early stop broken)", i, s.served)
		}
	}
	merged.Close()
	for i, s := range srcs {
		if s.closes != 1 {
			t.Fatalf("source %d double-closed", i)
		}
	}
}

// TestMergeCloseWithoutDrain abandons a merged stream immediately; every
// source must still close exactly once.
func TestMergeCloseWithoutDrain(t *testing.T) {
	srcs := []*countingRS{bigSource(0, 2, 300), bigSource(1, 2, 300)}
	merged, err := Merge([]resource.ResultSet{srcs[0], srcs[1]}, &rewrite.SelectContext{
		OrderBy: []rewrite.OrderKey{{Index: 0}},
		Limit:   &rewrite.LimitInfo{Count: 10},
		Derived: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := merged.Close(); err != nil {
		t.Fatal(err)
	}
	for i, s := range srcs {
		if s.closes != 1 {
			t.Fatalf("source %d: closes=%d after abandon", i, s.closes)
		}
	}
}

// TestMergeErrorPathClosesAll injects a mid-stream failure in one shard
// of an ordered merge; after the caller's Close, every source — failed
// and healthy — is released exactly once.
func TestMergeErrorPathClosesAll(t *testing.T) {
	healthy := bigSource(0, 2, 300)
	failing := bigSource(1, 2, 300)
	failing.failAfter = 150
	merged, err := Merge([]resource.ResultSet{healthy, failing}, &rewrite.SelectContext{
		OrderBy: []rewrite.OrderKey{{Index: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = resource.ReadAll(merged)
	if !errors.Is(err, errInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	merged.Close()
	if healthy.closes != 1 || failing.closes != 1 {
		t.Fatalf("closes after error: healthy=%d failing=%d", healthy.closes, failing.closes)
	}
}

// TestMemoryMergersCloseInputsEagerly: memory mergers (a combine,
// distinct) must release each shard cursor as soon as it is drained, not
// when the merged set is eventually closed.
func TestMemoryMergersCloseInputsEagerly(t *testing.T) {
	cols := []string{"name", "COUNT(*)"}
	a := &countingRS{inner: rsOf(cols, sqltypes.Row{vs("a"), vi(1)})}
	b := &countingRS{inner: rsOf(cols, sqltypes.Row{vs("b"), vi(2)})}
	merged, err := Merge([]resource.ResultSet{a, b}, combineCtx(t, "SELECT name, SUM(c) FROM p GROUP BY name", "name", "c"))
	if err != nil {
		t.Fatal(err)
	}
	// Inputs were fully consumed during Merge; they must already be closed.
	if a.closes != 1 || b.closes != 1 {
		t.Fatalf("memory merge input closes: a=%d b=%d", a.closes, b.closes)
	}
	merged.Close()
	if a.closes != 1 || b.closes != 1 {
		t.Fatalf("double close after merged.Close: a=%d b=%d", a.closes, b.closes)
	}

	// Distinct path: dedupe drains through ReadAll too.
	c := &countingRS{inner: rsOf([]string{"v"}, sqltypes.Row{vi(1)}, sqltypes.Row{vi(1)})}
	d := &countingRS{inner: rsOf([]string{"v"}, sqltypes.Row{vi(2)})}
	merged, err = Merge([]resource.ResultSet{c, d}, &rewrite.SelectContext{Distinct: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, merged); len(got) != 2 {
		t.Fatalf("distinct rows: %v", got)
	}
	if c.closes != 1 || d.closes != 1 {
		t.Fatalf("distinct input closes: c=%d d=%d", c.closes, d.closes)
	}

	// A unit that fails mid-drain fails the combine, and the units not yet
	// read are closed with it.
	e := &countingRS{inner: rsOf(cols, sqltypes.Row{vs("a"), vi(1)}, sqltypes.Row{vs("b"), vi(1)}), failAfter: 1}
	f := &countingRS{inner: rsOf(cols, sqltypes.Row{vs("b"), vi(2)})}
	if _, err := Merge([]resource.ResultSet{e, f}, combineCtx(t, "SELECT name, SUM(c) FROM p GROUP BY name", "name", "c")); !errors.Is(err, errInjected) {
		t.Fatalf("want the injected error, got %v", err)
	}
	if e.closes != 1 || f.closes != 1 {
		t.Fatalf("combine input closes after an error: e=%d f=%d", e.closes, f.closes)
	}
}

// TestIterationMergeCloseSweepsRemaining closes an iteration merge
// mid-way: the already-exhausted source closed once on EOF, the
// untouched ones close once on the sweep.
func TestIterationMergeCloseSweepsRemaining(t *testing.T) {
	srcs := []*countingRS{
		{inner: rsOf([]string{"id"}, sqltypes.Row{vi(1)})},
		{inner: rsOf([]string{"id"}, sqltypes.Row{vi(2)})},
		{inner: rsOf([]string{"id"}, sqltypes.Row{vi(3)})},
	}
	merged := newIterationMerger([]resource.ResultSet{srcs[0], srcs[1], srcs[2]})
	// Consume source 0 fully (its EOF closes it) and peek into source 1.
	if _, err := merged.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := merged.Next(); err != nil {
		t.Fatal(err)
	}
	if err := merged.Close(); err != nil {
		t.Fatal(err)
	}
	if err := merged.Close(); err != nil {
		t.Fatal(err)
	}
	for i, s := range srcs {
		if s.closes != 1 {
			t.Fatalf("source %d: closes=%d after midway close", i, s.closes)
		}
	}
}

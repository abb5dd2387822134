package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"shardingsphere/internal/resource"
	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
	"shardingsphere/internal/transaction"
)

// The Sysbench range shapes: each fans out to every shard of sbtest.
var rangeShapes = []string{
	"SELECT c FROM sbtest WHERE id BETWEEN ? AND ?",
	"SELECT SUM(k) FROM sbtest WHERE id BETWEEN ? AND ?",
	"SELECT c FROM sbtest WHERE id BETWEEN ? AND ? ORDER BY c",
	"SELECT DISTINCT c FROM sbtest WHERE id BETWEEN ? AND ? ORDER BY c",
}

// sbtestKernel builds sbtest over 5 sources x 10 tables (MOD on id), the
// benchmark's range_read layout, with ids 1..rows.
func sbtestKernel(tb testing.TB, rows int) *Kernel {
	tb.Helper()
	rules := sharding.NewRuleSet()
	sources := map[string]*resource.DataSource{}
	var names []string
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("ds%d", i)
		names = append(names, name)
		sources[name] = resource.NewEmbedded(storage.NewEngine(name), nil)
	}
	rule, err := sharding.BuildAutoRule(sharding.AutoTableSpec{
		LogicTable: "sbtest", Resources: names, ShardingColumn: "id", AlgorithmType: "MOD", ShardingCount: 50,
	})
	if err != nil {
		tb.Fatal(err)
	}
	rules.AddRule(rule)
	k, err := New(Config{Rules: rules, Sources: sources, DefaultTxType: transaction.Local})
	if err != nil {
		tb.Fatal(err)
	}
	s := k.NewSession()
	for _, ddl := range []string{
		"CREATE TABLE sbtest (id INT PRIMARY KEY, k INT NOT NULL, c VARCHAR(120) NOT NULL, pad CHAR(60) NOT NULL)",
		"CREATE INDEX k_sbtest ON sbtest (k)",
	} {
		if _, err := s.Exec(ddl); err != nil {
			tb.Fatal(err)
		}
	}
	var b strings.Builder
	for start := 1; start <= rows; start += 500 {
		b.Reset()
		b.WriteString("INSERT INTO sbtest (id, k, c, pad) VALUES ")
		for id := start; id < start+500 && id <= rows; id++ {
			if id > start {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, '%0119d', '%059d')", id, id%1000, id, id)
		}
		if _, err := s.Exec(b.String()); err != nil {
			tb.Fatal(err)
		}
	}
	return k
}

func drain(tb testing.TB, s *Session, sql string, args ...sqltypes.Value) int {
	res, err := s.Execute(sql, args...)
	if err != nil {
		tb.Fatal(err)
	}
	if res.RS == nil {
		return 0
	}
	rows, err := resource.ReadAll(res.RS)
	if err != nil {
		tb.Fatal(err)
	}
	return len(rows)
}

// TestRangeFanOutAllocations bounds what one 50-unit range statement in a
// LOCAL transaction allocates, end to end through Session.Execute: the
// kernel's route, rewrite, execute and merge, the embedded data nodes'
// execution, and the client's read of the merged rows. Counting
// allocations needs no clock, so the bound holds on any box. Before shapes
// were compiled once (rewrite templates, data-node select plans) such a
// statement allocated about 2,800 times. Since a kept shape binds with no
// per-unit allocation and an ordered DISTINCT dedupes as it streams, it
// allocates 53, 78, 62 and 64 times, and the ceilings sit a twentieth
// above that: room for a pool emptied by a collection mid-run, not for one
// more allocation per unit. The race detector drops a quarter of what the
// window pool is given, so it gets a quarter more.
func TestRangeFanOutAllocations(t *testing.T) {
	k := sbtestKernel(t, 2000)
	s := k.NewSession()
	ceilings := []float64{56, 82, 66, 68}
	if raceDetector() {
		for i := range ceilings {
			ceilings[i] *= 1.25
		}
	}
	for i, q := range rangeShapes {
		lo, hi := sqltypes.NewInt(401), sqltypes.NewInt(500)
		drain(t, s, "BEGIN")
		want := 100
		if i == 1 {
			want = 1
		}
		// Warm: plan cached, multi-node form derived, node plans retained.
		for w := 0; w < 3; w++ {
			if n := drain(t, s, q, lo, hi); n != want {
				t.Fatalf("%q returned %d rows, want %d", q, n, want)
			}
		}
		allocs := testing.AllocsPerRun(20, func() { drain(t, s, q, lo, hi) })
		drain(t, s, "COMMIT")
		t.Logf("%-70s %5.0f allocs (ceiling %.0f)", q, allocs, ceilings[i])
		if allocs > ceilings[i] {
			t.Errorf("%q: %.0f allocations per execution, ceiling %.0f", q, allocs, ceilings[i])
		}
	}
}

// TestFanOutBindAllocations: binding a kept shape through a session costs
// nothing per shard. After warm-up a 50-way BETWEEN allocates no more than
// a 10-way one: the session's route and rewrite results keep the arrays
// the fan-out grew, and the kept template remembers each table's text.
func TestFanOutBindAllocations(t *testing.T) {
	k := sbtestKernel(t, 0)
	s := k.NewSession()
	stmt, err := sqlparser.Parse(rangeShapes[0])
	if err != nil {
		t.Fatal(err)
	}
	p, ok := k.compile(k.Rules(), stmt)
	if !ok {
		t.Fatal("the range shape does not compile")
	}
	bind := func(hi int64, units int) float64 {
		args := []sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewInt(hi)}
		for w := 0; w < 3; w++ {
			rw, err := s.bind(p, args)
			if err != nil || len(rw.Units) != units {
				t.Fatalf("BETWEEN 1 AND %d: %v, want %d units", hi, err, units)
			}
		}
		return testing.AllocsPerRun(100, func() { s.bind(p, args) })
	}
	ten, fifty := bind(10, 10), bind(100, 50)
	t.Logf("10-way bind: %.0f allocs, 50-way: %.0f", ten, fifty)
	if fifty > ten {
		t.Errorf("a 50-way bind allocates %.0f times, a 10-way one %.0f", fifty, ten)
	}
}

// BenchmarkRangeRead is the benchmark's range_read transaction on one
// session, for profiling the fan-out path with the standard tooling.
func BenchmarkRangeRead(b *testing.B) {
	const rows = 50000
	k := sbtestKernel(b, rows)
	s := k.NewSession()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drain(b, s, "BEGIN")
		for j := 0; j < 10; j++ {
			drain(b, s, "SELECT c FROM sbtest WHERE id = ?", sqltypes.NewInt(1+rng.Int63n(rows)))
		}
		for _, q := range rangeShapes {
			lo := 1 + rng.Int63n(rows-100)
			drain(b, s, q, sqltypes.NewInt(lo), sqltypes.NewInt(lo+99))
		}
		drain(b, s, "COMMIT")
	}
}

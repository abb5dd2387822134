package main

import (
	"fmt"
	"math/rand"
	"time"

	"shardingsphere/internal/bench"
	"shardingsphere/internal/bench/sysbench"
	"shardingsphere/internal/bench/tpcc"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/transaction"
)

// sysbenchSystem builds and loads a system with the sbtest workload.
func sysbenchSystem(build func(bench.Topology) (*bench.System, error), top bench.Topology, cfg sysbench.Config) (*bench.System, error) {
	sys, err := build(top)
	if err != nil {
		return nil, err
	}
	if err := bench.PrepareOn(sys, func(c bench.Client) error {
		return sysbench.Prepare(c, cfg)
	}); err != nil {
		sys.Close()
		return nil, err
	}
	return sys, nil
}

// singleSysbench loads the single-node baseline.
func singleSysbench(name string, cfg sysbench.Config) (*bench.System, error) {
	sys, err := bench.NewSingle(name, 0)
	if err != nil {
		return nil, err
	}
	if err := bench.PrepareOn(sys, func(c bench.Client) error {
		return sysbench.Prepare(c, cfg)
	}); err != nil {
		sys.Close()
		return nil, err
	}
	return sys, nil
}

// table3 reproduces Table III: Sysbench scenarios across the distributed
// systems.
func table3() error {
	header(fmt.Sprintf("Table III — Sysbench scenarios (%d rows, %d sources, %d threads)",
		*flagRows, *flagSources, *flagThreads))
	cfg := sysbench.DefaultConfig(*flagRows)
	top := bench.Topology{Sources: *flagSources, MaxCon: 4}
	systems := []struct {
		name  string
		build func(bench.Topology) (*bench.System, error)
	}{
		{"SSJ", bench.NewSSJ},
		{"SSP", bench.NewSSP},
		{"Naive", bench.NewNaive},
	}
	scenarios := []struct {
		name string
		fn   func(sysbench.Config) bench.TxFunc
	}{
		{"PointSelect", func(c sysbench.Config) bench.TxFunc { return c.PointSelect() }},
		{"ReadOnly", func(c sysbench.Config) bench.TxFunc { return c.ReadOnly() }},
		{"ReadWrite", func(c sysbench.Config) bench.TxFunc { return c.ReadWrite() }},
		{"WriteOnly", func(c sysbench.Config) bench.TxFunc { return c.WriteOnly() }},
	}
	for _, sysSpec := range systems {
		sys, err := sysbenchSystem(sysSpec.build, top, cfg)
		if err != nil {
			return err
		}
		for _, sc := range scenarios {
			m, err := bench.Run(opts(), sys.NewClient, sc.fn(cfg))
			if err != nil {
				sys.Close()
				return err
			}
			row(sys.Name, sc.name, m)
		}
		sys.Close()
	}
	// The single-instance reference ("MS").
	single, err := singleSysbench("Single", cfg)
	if err != nil {
		return err
	}
	defer single.Close()
	for _, sc := range scenarios {
		m, err := bench.Run(opts(), single.NewClient, sc.fn(cfg))
		if err != nil {
			return err
		}
		row("Single", sc.name, m)
	}
	return nil
}

// table4 reproduces Table IV: everything on ONE server — sharding into 10
// small tables still beats one big table.
func table4() error {
	header(fmt.Sprintf("Table IV — single server (%d rows, %d threads)", *flagRows, *flagThreads))
	cfg := sysbench.DefaultConfig(*flagRows)
	top := bench.Topology{Sources: 1, TablesPerSource: 10, MaxCon: 4}

	single, err := singleSysbench("MS", cfg)
	if err != nil {
		return err
	}
	m, err := bench.Run(opts(), single.NewClient, cfg.ReadWrite())
	single.Close()
	if err != nil {
		return err
	}
	row("MS", "ReadWrite", m)

	ssj, err := sysbenchSystem(bench.NewSSJ, top, cfg)
	if err != nil {
		return err
	}
	m, err = bench.Run(opts(), ssj.NewClient, cfg.ReadWrite())
	ssj.Close()
	if err != nil {
		return err
	}
	row("SSJ(1)", "ReadWrite", m)

	ssp, err := sysbenchSystem(bench.NewSSP, top, cfg)
	if err != nil {
		return err
	}
	m, err = bench.Run(opts(), ssp.NewClient, cfg.ReadWrite())
	ssp.Close()
	if err != nil {
		return err
	}
	row("SSP(1)", "ReadWrite", m)
	return nil
}

// fig9 reproduces Fig. 9: TPCC across systems (TPS and 90T).
func fig9() error {
	header(fmt.Sprintf("Fig. 9 — TPCC (%d warehouses, %d sources, %d threads)",
		*flagWarehouses, *flagSources, *flagThreads))
	cfg := tpcc.DefaultConfig(*flagWarehouses)
	build := func(name string, kernelOf func() (*bench.System, error)) error {
		sys, err := kernelOf()
		if err != nil {
			return err
		}
		defer sys.Close()
		if err := bench.PrepareOn(sys, func(c bench.Client) error {
			return tpcc.Prepare(c, cfg)
		}); err != nil {
			return err
		}
		m, err := bench.Run(opts(), sys.NewClient, cfg.Mix())
		if err != nil {
			return err
		}
		row(name, "TPCC-mix", m)
		return nil
	}
	sources := make([]string, *flagSources)
	for i := range sources {
		sources[i] = fmt.Sprintf("ds%d", i)
	}
	newTPCCKernel := func(wrap func(bench.Topology) (*bench.System, error)) func() (*bench.System, error) {
		return func() (*bench.System, error) {
			rules, err := tpcc.Rules(sources)
			if err != nil {
				return nil, err
			}
			top := bench.Topology{Sources: *flagSources, MaxCon: 4}.WithRules(rules)
			return wrap(top)
		}
	}
	if err := build("SSJ", newTPCCKernel(bench.NewSSJ)); err != nil {
		return err
	}
	if err := build("SSP", newTPCCKernel(bench.NewSSP)); err != nil {
		return err
	}
	// Single-node reference.
	if err := build("Single", func() (*bench.System, error) {
		return bench.NewSingle("Single", 0)
	}); err != nil {
		return err
	}
	return nil
}

// fig10 reproduces Fig. 10: scalability with data size.
func fig10() error {
	header(fmt.Sprintf("Fig. 10 — data sizes (%d sources, %d threads, Read Write)", *flagSources, *flagThreads))
	for _, rows := range []int{*flagRows, *flagRows * 3, *flagRows * 5, *flagRows * 10} {
		cfg := sysbench.DefaultConfig(rows)
		sys, err := sysbenchSystem(bench.NewSSJ, bench.Topology{Sources: *flagSources, MaxCon: 4}, cfg)
		if err != nil {
			return err
		}
		m, err := bench.Run(opts(), sys.NewClient, cfg.ReadWrite())
		sys.Close()
		if err != nil {
			return err
		}
		row("SSJ", fmt.Sprintf("rows=%d", rows), m)

		single, err := singleSysbench("Single", cfg)
		if err != nil {
			return err
		}
		m, err = bench.Run(opts(), single.NewClient, cfg.ReadWrite())
		single.Close()
		if err != nil {
			return err
		}
		row("Single", fmt.Sprintf("rows=%d", rows), m)
	}
	return nil
}

// fig11 reproduces Fig. 11: scalability with request concurrency.
func fig11() error {
	header(fmt.Sprintf("Fig. 11 — concurrency (%d rows, %d sources, Read Write)", *flagRows, *flagSources))
	cfg := sysbench.DefaultConfig(*flagRows)
	sys, err := sysbenchSystem(bench.NewSSJ, bench.Topology{Sources: *flagSources, MaxCon: 4}, cfg)
	if err != nil {
		return err
	}
	defer sys.Close()
	for _, threads := range []int{1, 8, 32, 64, 128, 256} {
		o := opts()
		o.Workers = threads
		m, err := bench.Run(o, sys.NewClient, cfg.ReadWrite())
		if err != nil {
			return err
		}
		row("SSJ", fmt.Sprintf("threads=%d", threads), m)
	}
	return nil
}

// fig12 reproduces Fig. 12: scalability with the number of data servers.
func fig12() error {
	header(fmt.Sprintf("Fig. 12 — data servers (%d rows, %d threads, Read Write)", *flagRows, *flagThreads))
	cfg := sysbench.DefaultConfig(*flagRows)
	for _, n := range []int{1, 2, 3, 4, 5} {
		for _, spec := range []struct {
			name  string
			build func(bench.Topology) (*bench.System, error)
		}{{"SSJ", bench.NewSSJ}, {"SSP", bench.NewSSP}} {
			sys, err := sysbenchSystem(spec.build, bench.Topology{Sources: n, MaxCon: 4}, cfg)
			if err != nil {
				return err
			}
			m, err := bench.Run(opts(), sys.NewClient, cfg.ReadWrite())
			sys.Close()
			if err != nil {
				return err
			}
			row(spec.name, fmt.Sprintf("servers=%d", n), m)
		}
	}
	return nil
}

// fig13 reproduces Fig. 13: the three transaction types.
func fig13() error {
	header(fmt.Sprintf("Fig. 13 — transaction types (%d rows, %d sources, %d threads, Read Write)",
		*flagRows, *flagSources, *flagThreads))
	cfg := sysbench.DefaultConfig(*flagRows)
	for _, typ := range []transaction.Type{transaction.Local, transaction.XA, transaction.Base} {
		sys, err := sysbenchSystem(bench.NewSSJ,
			bench.Topology{Sources: *flagSources, MaxCon: 4, TxType: typ}, cfg)
		if err != nil {
			return err
		}
		m, err := bench.Run(opts(), sys.NewClient, cfg.ReadWrite())
		sys.Close()
		if err != nil {
			return err
		}
		row("SSJ", typ.String(), m)
	}
	return nil
}

// fig14 reproduces Fig. 14: binding tables vs common (cartesian) join. Both
// arms hold all 20 actual tables of each logic table on one source: an
// unbound join's combinations may not span sources.
func fig14() error {
	header(fmt.Sprintf("Fig. 14 — binding vs common join (%d rows per table, %d threads)",
		*flagRows/10, *flagThreads))
	joinTx := func(rows int) bench.TxFunc {
		return func(c bench.Client, rng *rand.Rand) error {
			id := int64(rng.Intn(rows) + 1)
			_, err := c.Query(
				"SELECT a.c, b.c FROM t_a a JOIN t_b b ON a.id = b.id WHERE a.id IN (?, ?)",
				sqltypes.NewInt(id), sqltypes.NewInt(id+1))
			return err
		}
	}
	rows := *flagRows / 10
	for _, binding := range []bool{true, false} {
		top := bench.Topology{
			Sources: 1, TablesPerSource: 20, MaxCon: 4,
			Tables: []string{"t_a", "t_b"}, Binding: binding,
		}
		sys, err := bench.NewSSJ(top)
		if err != nil {
			return err
		}
		err = bench.PrepareOn(sys, func(c bench.Client) error {
			for _, table := range []string{"t_a", "t_b"} {
				cfg := sysbench.DefaultConfig(rows)
				cfg.Table = table
				if err := sysbench.Prepare(c, cfg); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			sys.Close()
			return err
		}
		label := "binding"
		if !binding {
			label = "common"
		}
		m, err := bench.Run(opts(), sys.NewClient, joinTx(rows))
		sys.Close()
		if err != nil {
			return err
		}
		row("SSJ", label, m)
	}
	return nil
}

// fig15 reproduces Fig. 15: the MaxCon sweep with a single thread and a
// broadcast range query; per-source latency makes connection parallelism
// visible, as network IO does in the paper's testbed.
func fig15() error {
	header(fmt.Sprintf("Fig. 15 — MaxCon (single thread, range query, %d rows)", *flagRows))
	cfg := sysbench.DefaultConfig(*flagRows)
	for _, maxCon := range []int{1, 2, 5, 10, 20} {
		sys, err := sysbenchSystem(bench.NewSSJ, bench.Topology{
			Sources: 2, MaxCon: maxCon, Latency: 300 * time.Microsecond,
		}, cfg)
		if err != nil {
			return err
		}
		rangeQuery := func(c bench.Client, rng *rand.Rand) error {
			// k is unsharded, so the query fans out to every shard.
			_, err := c.Query("SELECT COUNT(*) FROM sbtest WHERE k BETWEEN ? AND ?",
				sqltypes.NewInt(1), sqltypes.NewInt(int64(rng.Intn(cfg.Rows)+1)))
			return err
		}
		o := opts()
		o.Workers = 1
		m, err := bench.Run(o, sys.NewClient, rangeQuery)
		sys.Close()
		if err != nil {
			return err
		}
		row("SSJ", fmt.Sprintf("maxcon=%d", maxCon), m)
	}
	return nil
}

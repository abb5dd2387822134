// Command benchmark regenerates every table and figure of the paper's
// evaluation (Section VIII) against this repository's systems: SSJ (the
// embedded driver), SSP (the TCP proxy), the naive broadcast middleware,
// and the single-instance baseline. Absolute numbers differ from the
// paper's cloud testbed by design; the shapes — who wins, by what factor,
// where curves bend — are the reproduction target (see EXPERIMENTS.md).
// It stays, with internal/bench and internal/baseline, as the paper-figure
// harness until benchmark/ has the single-node and SSJ/SSP cells (ROADMAP
// item 1); performance is claimed only through benchmark/.
//
// Usage:
//
//	benchmark [flags] <experiment>
//	experiments: table3 table4 fig9 fig10 fig11 fig12 fig13 fig14 fig15 all
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"shardingsphere/internal/bench"
)

var (
	flagRows       = flag.Int("rows", 20000, "sysbench data size (rows)")
	flagSources    = flag.Int("sources", 5, "number of data sources")
	flagThreads    = flag.Int("threads", 32, "request concurrency")
	flagDuration   = flag.Duration("duration", 2*time.Second, "measurement duration per cell")
	flagWarehouses = flag.Int("warehouses", 4, "TPCC warehouses")
	flagSeed       = flag.Int64("seed", 42, "workload seed")
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [flags] <table3|table4|fig9|fig10|fig11|fig12|fig13|fig14|fig15|all>")
		os.Exit(2)
	}
	exps := map[string]func() error{
		"table3": table3,
		"table4": table4,
		"fig9":   fig9,
		"fig10":  fig10,
		"fig11":  fig11,
		"fig12":  fig12,
		"fig13":  fig13,
		"fig14":  fig14,
		"fig15":  fig15,
	}
	name := flag.Arg(0)
	if name == "all" {
		for _, n := range []string{"table3", "table4", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15"} {
			if err := exps[n](); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", n, err)
				os.Exit(1)
			}
		}
		return
	}
	fn, ok := exps[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
		os.Exit(2)
	}
	if err := fn(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
}

func opts() bench.Options {
	return bench.Options{Workers: *flagThreads, Duration: *flagDuration, Seed: *flagSeed}
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func row(system, scenario string, m bench.Metrics) {
	fmt.Printf("%-8s %-14s %s\n", system, scenario, m)
}

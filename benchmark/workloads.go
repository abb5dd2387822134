package main

// workload is one traffic mix on one system. The names are a contract:
// BENCHMARK.json and later issues cite them.
type workload struct {
	name string
	why  string
	// wire selects the deployed form (client -> proxy -> kernel -> wire v2
	// -> data nodes); otherwise clients are sessions on an embedded kernel.
	wire            bool
	sources         int
	tablesPerSource int
	// xa runs transactions under XA; otherwise LOCAL.
	xa bool
	// shapes is how many aliases of the point select coldPoint cycles
	// through, all clients together; 0 for the other workloads.
	shapes int
	// txn appends one transaction's statements to the generator.
	txn func(g *gen)
	// walkTxns is how many transactions the layer walk replays: fixed, so
	// the walk's counts repeat exactly.
	walkTxns int
}

var workloads = []*workload{
	{
		name: "point_select",
		why: "One cached shape routed to one unit: per-statement kernel overhead (normalize, plan-cache hit, " +
			"skeleton route, template render, pool acquire, telemetry) is nearly all the work. Paper Table III.",
		sources: 5, tablesPerSource: 10, walkTxns: 20000,
		txn: func(g *gen) { g.point(sqlPoint) },
	},
	{
		name: "cold_shapes",
		why: "The same point select under 16,384 aliases, 4x the plan cache: every statement misses, so parse, " +
			"skeleton build, rewrite and eviction do the work point_select bypasses.",
		sources: 5, tablesPerSource: 10, walkTxns: 20000, shapes: coldShapes,
		txn: func(g *gen) { g.coldPoint() },
	},
	{
		name: "range_read",
		why: "Sysbench Read Only in a LOCAL transaction: each of 4 ranges fans out to 50 units, so executor " +
			"fan-out, pool acquire and the stream/order/group/distinct mergers dominate; the parser does nothing.",
		sources: 5, tablesPerSource: 10, walkTxns: 1000,
		txn: func(g *gen) { g.begin(); g.reads(); g.commitOp() },
	},
	{
		name: "write_txn",
		why: "Sysbench Write Only under XA: ids land on 2+ sources almost always, so lazy XA upgrade, parallel " +
			"2PC, the group-committed log and the held-connection update path do the work; merge does none.",
		sources: 5, tablesPerSource: 10, xa: true, walkTxns: 5000,
		txn: func(g *gen) { g.begin(); g.writes(); g.commitOp() },
	},
	{
		name: "wire_read_write",
		why: "The deployed form: pkg/client -> proxy -> kernel -> wire v2 mux -> 2 data nodes, Sysbench Read Write " +
			"under XA. Every statement crosses the front wire, every unit the back wire; the others bypass both.",
		wire: true, sources: 2, tablesPerSource: 10, xa: true, walkTxns: 500,
		txn: func(g *gen) { g.begin(); g.reads(); g.writes(); g.commitOp() },
	},
}

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

package distsql

import (
	"fmt"
	"strings"
	"testing"

	"shardingsphere/internal/core"
	"shardingsphere/internal/proxy"
	"shardingsphere/internal/registry"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sqlexec"
	"shardingsphere/internal/storage"
	"shardingsphere/pkg/client"
)

// startNode mirrors cmd/datanode: one storage engine behind a wire
// server on a real socket.
func startNode(t *testing.T, name string) string {
	t.Helper()
	srv := proxy.NewServer(&proxy.NodeBackend{Processor: sqlexec.NewProcessor(storage.NewEngine(name))})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return addr
}

// remoteFixture mirrors cmd/ssproxy's remote deployment: a kernel whose
// data sources are two datanode servers reached over wire v2, with
// DistSQL installed.
func remoteFixture(t *testing.T) (*core.Kernel, *core.Session) {
	t.Helper()
	sources := map[string]*resource.DataSource{}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("ds%d", i)
		ds := client.NewRemoteDataSource(name, startNode(t, name), nil)
		t.Cleanup(func() { ds.Close() })
		sources[name] = ds
	}
	reg := registry.New()
	k, err := core.New(core.Config{Sources: sources, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(Install(k).Close)
	return k, k.NewSession()
}

// TestObsSmoke is the observability-plane smoke test (make obs-smoke):
// a proxy kernel over two remote data nodes runs a traced statement and
// the end-to-end trace must contain datanode-side child spans plus the
// wire/queue gap per source, while SHOW CLUSTER METRICS must return the
// per-node snapshots and a merge whose counts equal the node sums.
func TestObsSmoke(t *testing.T) {
	_, s := remoteFixture(t)
	exec(t, s, createUserRule)
	exec(t, s, "CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(32))")
	for i := 0; i < 8; i++ {
		exec(t, s, fmt.Sprintf("INSERT INTO t_user (uid, name) VALUES (%d, 'u%d')", i, i))
	}

	// A full-table TRACE fans out to both nodes; every routed source must
	// contribute remote child spans and a wire span with a nonzero gap.
	got := rows(t, exec(t, s, "TRACE SELECT * FROM t_user"))
	nodeSpans := map[string]int{}
	wireDur := map[string]int64{}
	for _, r := range got {
		stage, ds := r[0].S, r[1].S
		if strings.HasPrefix(stage, "node_") && ds != "" {
			nodeSpans[ds]++
		}
		if stage == "wire" && ds != "" {
			wireDur[ds] += r[3].I
		}
	}
	for _, ds := range []string{"ds0", "ds1"} {
		if nodeSpans[ds] == 0 {
			t.Fatalf("no datanode child spans for %s in TRACE output: %v", ds, got)
		}
		if dur, ok := wireDur[ds]; !ok || dur <= 0 {
			t.Fatalf("no wire/queue gap for %s (got %dus): %v", ds, dur, got)
		}
	}

	// Cluster metrics: both nodes report, and every merged histogram's
	// count is exactly the sum of that histogram's node counts.
	got = rows(t, exec(t, s, "SHOW CLUSTER METRICS"))
	nodeCount := map[string]map[string]int64{} // metric -> node -> count
	for _, r := range got {
		node, kind, metric := r[0].S, r[1].S, r[2].S
		if kind != "histogram" {
			continue
		}
		if nodeCount[metric] == nil {
			nodeCount[metric] = map[string]int64{}
		}
		nodeCount[metric][node] = r[3].I
	}
	total, ok := nodeCount["node.total"]
	if !ok || total["ds0"] == 0 || total["ds1"] == 0 {
		t.Fatalf("node.total histogram missing per-node rows: %v", nodeCount)
	}
	for metric, byNode := range nodeCount {
		var sum int64
		for node, c := range byNode {
			if node != "cluster" {
				sum += c
			}
		}
		if byNode["cluster"] != sum {
			t.Fatalf("merged %s count %d != node sum %d (%v)", metric, byNode["cluster"], sum, byNode)
		}
	}

	// The merged counters ride along: node.statements sums both nodes.
	for _, r := range got {
		if r[0].S == "cluster" && r[1].S == "counter" && r[2].S == "node.statements" && r[6].I > 0 {
			return
		}
	}
	t.Fatalf("cluster node.statements missing from SHOW CLUSTER METRICS: %v", got)
}

// sourceExecutes reads SHOW METRICS' per-source execute counts.
func sourceExecutes(t *testing.T, s *core.Session) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for name, n := range metrics(t, s) {
		if rest, ok := strings.CutPrefix(name, "source."); ok {
			if ds, ok := strings.CutSuffix(rest, ".execute"); ok {
				out[ds] = n
			}
		}
	}
	return out
}

// TestTracedRangeInTransactionAddsUp: inside a transaction a range over 8
// shards on two remote nodes is one pipelined window per node, and every
// surface says so consistently — TRACE shows one execute span per source
// (attempt 1) over two grafted remote statements each (the branch's BEGIN
// rides the window ahead of one statement over the source's four tables),
// SHOW METRICS counts one execution per source, and SHOW SHARD HEAT still
// charges every shard its own call and its own rows.
func TestTracedRangeInTransactionAddsUp(t *testing.T) {
	k, s := remoteFixture(t)
	// mod, not hash_mod: uids 0..15 put exactly two rows in each shard.
	exec(t, s, `CREATE SHARDING TABLE RULE t_user (RESOURCES(ds0, ds1),
		SHARDING_COLUMN = uid, TYPE = mod, PROPERTIES("sharding-count" = 8))`)
	exec(t, s, "CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(32))")
	for i := 0; i < 16; i++ {
		exec(t, s, fmt.Sprintf("INSERT INTO t_user (uid, name) VALUES (%d, 'u%d')", i, i))
	}
	exec(t, s, "SET VARIABLE stage_sampling = 1")
	exec(t, s, "BEGIN")
	exec(t, s, "RESET DIGESTS")
	before := sourceExecutes(t, s)
	windows := map[string]int64{}
	for _, name := range k.Executor().Sources() {
		ds, _ := k.Executor().Source(name)
		windows[name] = ds.AuxMetrics()["pipelined_batches"]
	}

	got := rows(t, exec(t, s, "TRACE SELECT * FROM t_user"))
	execSpans, wireSpans := map[string]int{}, map[string]int{}
	for _, r := range got {
		switch stage, ds := r[0].S, r[1].S; {
		case stage == "execute" && ds != "":
			execSpans[ds]++
			if r[5].I != 1 {
				t.Fatalf("execute span on %s has attempt %d: %v", ds, r[5].I, r)
			}
		case stage == "wire":
			wireSpans[ds]++
		}
	}
	after := sourceExecutes(t, s)
	for _, name := range []string{"ds0", "ds1"} {
		if execSpans[name] != 1 || wireSpans[name] != 2 {
			t.Fatalf("%s: %d execute spans over %d remote statements, want 1 over 2 (%v)", name, execSpans[name], wireSpans[name], got)
		}
		if n := after[name] - before[name]; n != 1 {
			t.Fatalf("%s: SHOW METRICS counts %d executions for one window", name, n)
		}
		ds, _ := k.Executor().Source(name)
		if n := ds.AuxMetrics()["pipelined_batches"] - windows[name]; n != 1 {
			t.Fatalf("%s: %d pipelined windows for one range statement", name, n)
		}
	}
	heat := rows(t, exec(t, s, "SHOW SHARD HEAT"))
	if len(heat) != 8 {
		t.Fatalf("%d heat cells for 8 shards: %v", len(heat), heat)
	}
	for _, r := range heat {
		if r[4].I != 1 || r[6].I != 2 || r[9].I != 0 {
			t.Fatalf("shard %s.%s: %d queries, %d rows read, %d errors; want 1, 2, 0", r[1].S, r[2].S, r[4].I, r[6].I, r[9].I)
		}
	}
	exec(t, s, "COMMIT")
}

// TestRangeCostsEachNodeOneStatement: a range over 20 shards on two remote
// nodes sends each node one statement, its ten units' text over their ten
// tables — inside BEGIN (behind the branch's BEGIN, which rides the same
// window) and at MaxCon 1 — and the rows come back merged in order. SHOW
// SHARD HEAT still charges every shard one query and its own rows.
func TestRangeCostsEachNodeOneStatement(t *testing.T) {
	for _, run := range []struct {
		name   string
		maxCon int
		tx     bool
	}{{"BEGIN", 0, true}, {"MaxCon 1", 1, false}} {
		t.Run(run.name, func(t *testing.T) {
			sources, procs := map[string]*resource.DataSource{}, map[string]*sqlexec.Processor{}
			for _, name := range []string{"ds0", "ds1"} {
				procs[name] = sqlexec.NewProcessor(storage.NewEngine(name))
				srv := proxy.NewServer(&proxy.NodeBackend{Processor: procs[name]})
				addr, err := srv.Start("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(srv.Close)
				sources[name] = client.NewRemoteDataSource(name, addr, nil)
				t.Cleanup(sources[name].Close)
			}
			k, err := core.New(core.Config{Sources: sources, MaxCon: run.maxCon})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(Install(k).Close)
			s := k.NewSession()
			exec(t, s, `CREATE SHARDING TABLE RULE t (RESOURCES(ds0, ds1),
				SHARDING_COLUMN = id, TYPE = mod, PROPERTIES("sharding-count" = 20))`)
			exec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
			for id := 1; id <= 40; id++ {
				exec(t, s, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", id, id%7))
			}
			verbs := int64(0)
			if run.tx {
				exec(t, s, "BEGIN")
				verbs = 1
			}
			exec(t, s, "RESET DIGESTS")
			before := map[string]int64{}
			for name, p := range procs {
				before[name] = p.Stats().Statements.Load()
			}
			got := rows(t, exec(t, s, "SELECT id FROM t WHERE id BETWEEN 1 AND 40 ORDER BY id DESC"))
			if len(got) != 40 || got[0][0].I != 40 || got[39][0].I != 1 {
				t.Fatalf("range answered %v", got)
			}
			for name, p := range procs {
				if n := p.Stats().Statements.Load() - before[name]; n != 1+verbs {
					t.Fatalf("%s ran %d statements for ten units, want %d", name, n, 1+verbs)
				}
			}
			heat := rows(t, exec(t, s, "SHOW SHARD HEAT"))
			if len(heat) != 20 {
				t.Fatalf("%d heat cells for 20 shards: %v", len(heat), heat)
			}
			for _, r := range heat {
				if r[4].I != 1 || r[6].I != 2 || r[9].I != 0 {
					t.Fatalf("shard %s.%s: %d queries, %d rows read, %d errors; want 1, 2, 0", r[1].S, r[2].S, r[4].I, r[6].I, r[9].I)
				}
			}
			if run.tx {
				exec(t, s, "COMMIT")
			}
		})
	}
}

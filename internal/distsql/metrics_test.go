package distsql

import (
	"fmt"
	"strings"
	"testing"

	"shardingsphere/internal/admission"
	"shardingsphere/internal/telemetry"
)

// TestClusterMetricsWithoutGovernor: SHOW CLUSTER METRICS pulls the data
// nodes through the executor's sources, so a kernel with DistSQL and no
// governor answers with one set of rows per node and their merge.
func TestClusterMetricsWithoutGovernor(t *testing.T) {
	_, s := remoteFixture(t, false)
	exec(t, s, createUserRule)
	exec(t, s, "CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(32))")
	exec(t, s, "INSERT INTO t_user (uid, name) VALUES (1, 'u1')")
	statements := map[string]int64{}
	for _, r := range rows(t, exec(t, s, "SHOW CLUSTER METRICS")) {
		if r[1].S == "counter" && r[2].S == "node.statements" {
			statements[r[0].S] = r[6].I
		}
	}
	if statements["ds0"] == 0 || statements["ds1"] == 0 || statements["cluster"] != statements["ds0"]+statements["ds1"] {
		t.Fatalf("node.statements per node and merged: %v", statements)
	}
}

// TestShowMetricsKeepsDeletedVerbs maps every value SHOW TRANSACTION
// METRICS, SHOW REMOTE STATUS, SHOW PLAN CACHE STATUS and SHOW SQL
// METRICS reported to its SHOW METRICS name, and checks each against the
// component read beside it. Only SHOW SQL METRICS' p95 column and SHOW
// PLAN CACHE STATUS' constant "enabled" have no name.
func TestShowMetricsKeepsDeletedVerbs(t *testing.T) {
	k, s := remoteFixture(t, true)
	ctl := admission.NewController(admission.Config{})
	k.SetAdmission(ctl)
	rel, _, err := ctl.Acquire("default", 0)
	if err != nil {
		t.Fatal(err)
	}
	rel()
	exec(t, s, "SET VARIABLE stage_sampling = 1")
	exec(t, s, createUserRule)
	exec(t, s, "CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(32))")
	for i := 0; i < 8; i++ {
		exec(t, s, fmt.Sprintf("INSERT INTO t_user (uid, name) VALUES (%d, 'u%d')", i, i))
	}
	exec(t, s, "SET VARIABLE transaction_type = XA")
	exec(t, s, "BEGIN")
	exec(t, s, "INSERT INTO t_user (uid, name) VALUES (8, 'u8')")
	exec(t, s, "COMMIT")
	exec(t, s, "BEGIN")
	exec(t, s, "INSERT INTO t_user (uid, name) VALUES (9, 'u9'), (10, 'u10'), (11, 'u11')")
	exec(t, s, "COMMIT")
	if _, err := s.Execute("INSERT INTO t_user (uid, name) VALUES (1, 'dup')"); err == nil {
		t.Fatal("duplicate key accepted")
	}
	for i := 0; i < 3; i++ {
		rows(t, exec(t, s, "SELECT name FROM t_user WHERE uid = 2"))
	}
	rows(t, exec(t, s, "SELECT * FROM t_user"))

	// A counter by its name, a histogram's columns as "<name> <column>".
	got := map[string]int64{}
	for _, r := range rows(t, exec(t, s, "SHOW METRICS")) {
		if r[0].S != "local" {
			t.Fatalf("SHOW METRICS row for node %q", r[0].S)
		}
		if r[1].S == "counter" {
			got[r[2].S] = r[6].I
			continue
		}
		got[r[2].S+" count"], got[r[2].S+" p50_us"], got[r[2].S+" p99_us"] = r[3].I, r[4].I, r[5].I
	}

	type mapping struct {
		verb, column, metric string
		want                 int64
	}
	var table []mapping
	add := func(verb, column, metric string, want int64) {
		table = append(table, mapping{verb, column, metric, want})
	}
	for name, v := range k.TxManager().Metrics() {
		add("SHOW TRANSACTION METRICS", name, "txn."+name, v)
	}
	for _, ds := range []string{"ds0", "ds1"} {
		src, _ := k.Executor().Source(ds)
		for name, v := range src.AuxMetrics() {
			add("SHOW REMOTE STATUS", ds+" "+name, "remote."+ds+"."+name, v)
		}
	}
	pc := k.PlanCache().Stats()
	add("SHOW PLAN CACHE STATUS", "hits", "plan_cache.hits", int64(pc.Hits))
	add("SHOW PLAN CACHE STATUS", "misses", "plan_cache.misses", int64(pc.Misses))
	add("SHOW PLAN CACHE STATUS", "evictions", "plan_cache.evictions", int64(pc.Evictions))
	add("SHOW PLAN CACHE STATUS", "invalidations", "plan_cache.invalidations", int64(pc.Invalidations))
	add("SHOW PLAN CACHE STATUS", "size", "plan_cache.size", int64(pc.Size))
	add("SHOW PLAN CACHE STATUS", "capacity", "plan_cache.capacity", int64(pc.Capacity))
	add("SHOW PLAN CACHE STATUS", "epoch", "plan_cache.epoch", int64(pc.Epoch))
	add("SHOW PLAN CACHE STATUS", "hit_ratio", "plan_cache.hit_ratio_milli", int64(pc.HitRatio()*1000))
	for i, ev := range pc.ShardEvictions {
		add("SHOW PLAN CACHE STATUS", fmt.Sprintf("shard_evictions[%d]", i), fmt.Sprintf("plan_cache.shard_evictions.%d", i), int64(ev))
	}
	// SHOW SQL METRICS' stage rows and total errors are the collector's
	// own snapshot; its source rows read the per-source stats.
	tel := k.Telemetry()
	for _, h := range tel.MetricsSnapshot().Histograms {
		if stage, ok := strings.CutPrefix(h.Name, "stage."); ok {
			add("SHOW SQL METRICS", stage+" count", h.Name+" count", int64(h.Count()))
			add("SHOW SQL METRICS", stage+" p50_us", h.Name+" p50_us", usOf(h.Quantile(0.50)))
			add("SHOW SQL METRICS", stage+" p99_us", h.Name+" p99_us", usOf(h.Quantile(0.99)))
		}
	}
	add("SHOW SQL METRICS", "stage total errors", "errors", 1)
	for _, ds := range []string{"ds0", "ds1"} {
		st, p := tel.Source(ds), "source."+ds
		for _, c := range []struct {
			column, metric string
			h              *telemetry.Histogram
			q              float64
		}{
			{"queries", ".execute count", &st.Execute, 0},
			{"p50_us", ".execute p50_us", &st.Execute, 0.50},
			{"p99_us", ".execute p99_us", &st.Execute, 0.99},
			{"acquire_p99_us", ".acquire p99_us", &st.AcquireWait, 0.99},
			{"wire_count", ".wire count", &st.Wire, 0},
			{"wire_p99_us", ".wire p99_us", &st.Wire, 0.99},
			{"remote_p99_us", ".remote p99_us", &st.Remote, 0.99},
		} {
			want := int64(c.h.Count())
			if c.q > 0 {
				want = usOf(c.h.Quantile(c.q))
			}
			add("SHOW SQL METRICS", ds+" "+c.column, p+c.metric, want)
		}
		add("SHOW SQL METRICS", ds+" errors", p+".errors", int64(st.Errors.Load()))
	}
	for _, name := range []string{"retries", "retry_success", "fail_fast_aborts"} {
		add("SHOW SQL METRICS", "counter "+name, "exec."+name, k.Executor().Metrics()[name])
	}
	for name, v := range k.ResilienceMetrics() {
		add("SHOW SQL METRICS", "counter "+name, "resilience."+name, v)
	}
	for name, v := range ctl.Metrics() {
		add("SHOW SQL METRICS", "counter admission."+name, "admission."+name, v)
	}

	for _, m := range table {
		v, ok := got[m.metric]
		if !ok {
			t.Errorf("%s %s: no %s in SHOW METRICS", m.verb, m.column, m.metric)
		} else if v != m.want {
			t.Errorf("%s %s: %s = %d, the component reads %d", m.verb, m.column, m.metric, v, m.want)
		}
	}
	// The workload above reaches every family the table maps.
	for _, name := range []string{"txn.fastpath_commits", "txn.xa_commits", "remote.ds0.sockets_open", "plan_cache.hits",
		"source.ds0.acquire count", "source.ds0.wire count", "stage.total count", "admission.admitted"} {
		if got[name] == 0 {
			t.Errorf("%s is zero: the workload did not reach it", name)
		}
	}
}

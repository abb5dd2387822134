package distsql

import (
	"fmt"
	"strings"
	"testing"

	"shardingsphere/internal/plancache"
	"shardingsphere/internal/sqlparser"
)

// createUserRule8 is the smoke test's 8-shard layout: enough shards that
// a skewed key is clearly one hot cell among many cold ones.
const createUserRule8 = `CREATE SHARDING TABLE RULE t_user (
	RESOURCES(ds0, ds1),
	SHARDING_COLUMN = uid,
	TYPE = hash_mod,
	PROPERTIES("sharding-count" = 8)
)`

// TestDigestSmoke is the workload-observability smoke test (make
// digest-smoke): a proxy kernel over two real datanodes runs a skewed
// point-select storm and the surfaces must tell the truth about it —
// SHOW SHARD HEAT ranks the injected hot shard first, SHOW HOT KEYS
// ranks the injected hot key first, SHOW STATEMENT DIGESTS aggregates
// the storm into one shape with exact counts, SHOW CLUSTER METRICS
// merges per-node heat counters to the exact node sum, and RESET
// DIGESTS clears the plane.
func TestDigestSmoke(t *testing.T) {
	_, s := remoteFixture(t, true)
	exec(t, s, createUserRule8)
	exec(t, s, "CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(32))")
	for i := 0; i < 8; i++ {
		exec(t, s, fmt.Sprintf("INSERT INTO t_user (uid, name) VALUES (%d, 'u%d')", i, i))
	}
	exec(t, s, "SET VARIABLE hotkey_tracking = true")
	// Clear the DDL/seed noise so the storm's numbers are exact.
	exec(t, s, "RESET DIGESTS")

	// Skewed storm: 80% of 200 point selects hit uid=1, the rest sweep
	// the other shards.
	const total, hot = 200, 160
	hotCount := 0
	for i := 0; i < total; i++ {
		uid := 1
		if i%5 == 0 {
			uid = (i / 5) % 8
		}
		if uid == 1 {
			hotCount++
		}
		got := rows(t, exec(t, s, fmt.Sprintf("SELECT name FROM t_user WHERE uid = %d", uid)))
		if len(got) != 1 {
			t.Fatalf("uid %d: %d rows", uid, len(got))
		}
	}
	if hotCount < hot {
		t.Fatalf("storm generated only %d/%d hot queries", hotCount, total)
	}

	// SHOW SHARD HEAT must rank the shard holding uid=1 first: the top
	// row carries the strict majority of queries.
	heat := rows(t, exec(t, s, "SHOW SHARD HEAT"))
	if len(heat) < 2 {
		t.Fatalf("heat map has %d cells, want the full sweep: %v", len(heat), heat)
	}
	topQueries := heat[0][4].I
	if topQueries < hot {
		t.Fatalf("top heat cell has %d queries, want >= %d: %v", topQueries, hot, heat)
	}
	for _, r := range heat[1:] {
		if r[4].I >= topQueries {
			t.Fatalf("hot shard not ranked first: top=%d, other %s.%s=%d",
				topQueries, r[1].S, r[2].S, r[4].I)
		}
	}

	// SHOW HOT KEYS must rank uid=1 first with at least the hot count
	// (space-saving counts never underestimate).
	keys := rows(t, exec(t, s, "SHOW HOT KEYS"))
	if len(keys) == 0 {
		t.Fatal("no hot keys tracked")
	}
	if k0 := keys[0]; k0[0].S != "t_user" || k0[1].S != "uid" || k0[2].S != "1" {
		t.Fatalf("hot key not ranked first: %v", keys)
	}
	if keys[0][3].I < int64(hotCount) {
		t.Fatalf("hot key count %d < %d observed", keys[0][3].I, hotCount)
	}

	// The storm is one statement shape: exactly one digest row with exact
	// call/row counts, all single-shard, literals normalized away.
	digests := rows(t, exec(t, s, "SHOW STATEMENT DIGESTS ORDER BY calls"))
	if len(digests) != 1 {
		t.Fatalf("%d digest rows, want 1: %v", len(digests), digests)
	}
	d := digests[0]
	if !strings.Contains(d[1].S, "?") || strings.Contains(d[1].S, "uid = 1") {
		t.Fatalf("digest sql not normalized: %q", d[1].S)
	}
	if d[2].I != total {
		t.Fatalf("digest calls %d, want %d", d[2].I, total)
	}
	if d[5].I != total {
		t.Fatalf("digest rows %d, want %d (one row per point select)", d[5].I, total)
	}
	if d[11].I != total || d[12].I != 0 {
		t.Fatalf("single/cross split %d/%d, want %d/0", d[11].I, d[12].I, total)
	}

	// The proxy's metric families carry the same exact totals.
	m := metrics(t, s)
	if m["digest.calls"] != total {
		t.Fatalf("digest.calls metric %d, want %d (metrics: %v)", m["digest.calls"], total, m)
	}
	if m["heat.queries"] != total {
		t.Fatalf("heat.queries metric %d, want %d", m["heat.queries"], total)
	}

	// Federation: every merged cluster counter equals the exact node sum,
	// and the datanodes' per-table heat counters rode the pull.
	cluster := rows(t, exec(t, s, "SHOW CLUSTER METRICS"))
	counter := map[string]map[string]int64{} // metric -> node -> value
	for _, r := range cluster {
		if r[1].S != "counter" {
			continue
		}
		if counter[r[2].S] == nil {
			counter[r[2].S] = map[string]int64{}
		}
		counter[r[2].S][r[0].S] = r[6].I
	}
	heatReads := int64(0)
	for metric, byNode := range counter {
		var sum int64
		for node, v := range byNode {
			if node != "cluster" {
				sum += v
			}
		}
		if byNode["cluster"] != sum {
			t.Fatalf("merged %s = %d != node sum %d (%v)", metric, byNode["cluster"], sum, byNode)
		}
		if strings.HasPrefix(metric, "heat.") && strings.HasSuffix(metric, ".reads") {
			heatReads += byNode["cluster"]
		}
	}
	if heatReads < total {
		t.Fatalf("datanode per-table heat counters missing: %d reads across cluster (%v)", heatReads, counter)
	}

	// RESET DIGESTS clears the whole plane but keeps tracking on.
	exec(t, s, "RESET DIGESTS")
	if got := rows(t, exec(t, s, "SHOW STATEMENT DIGESTS")); len(got) != 0 {
		t.Fatalf("digests survived RESET: %v", got)
	}
	if got := rows(t, exec(t, s, "SHOW SHARD HEAT")); len(got) != 0 {
		t.Fatalf("heat cells survived RESET: %v", got)
	}
	if got := rows(t, exec(t, s, "SHOW HOT KEYS")); len(got) != 0 {
		t.Fatalf("hot keys survived RESET: %v", got)
	}
	if m := metrics(t, s); m["digest.shapes"] != 0 || m["digest.calls"] != 0 {
		t.Fatalf("digest metrics survived RESET: shapes %d calls %d", m["digest.shapes"], m["digest.calls"])
	}
	// The digests live in the plan cache's entries, so the reset cost the
	// shape its plan: the next statement compiles it again — the one parse
	// here, the data nodes' statement caches being warm from the storm —
	// and starts repopulating the plane.
	before := sqlparser.ParseCount()
	rows(t, exec(t, s, "SELECT name FROM t_user WHERE uid = 3"))
	if n := sqlparser.ParseCount() - before; n != 1 {
		t.Fatalf("first execution after RESET parsed %d times, want 1 (the recompile)", n)
	}
	if got := rows(t, exec(t, s, "SHOW STATEMENT DIGESTS")); len(got) != 1 || got[0][2].I != 1 {
		t.Fatalf("plane did not repopulate after RESET: %v", got)
	}
}

// TestDigestTotalsSurviveEviction storms three capacities of new shapes
// through one session. The digest.* totals are counters: they must never
// decrease while shapes are evicted, and must end at the number of
// statements executed; SHOW STATEMENT DIGESTS accounts for the evicted
// shapes in one last "(evicted)" row, which RESET DIGESTS clears.
func TestDigestTotalsSurviveEviction(t *testing.T) {
	_, s, _ := fixture(t)
	exec(t, s, createUserRule)
	exec(t, s, "CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(32))")
	exec(t, s, "INSERT INTO t_user (uid, name) VALUES (1, 'u1')")
	exec(t, s, "RESET DIGESTS")

	const shapes = 3 * plancache.DefaultCapacity
	var last int64
	for i := 0; i < shapes; i++ {
		rows(t, exec(t, s, fmt.Sprintf("SELECT name AS a%05d FROM t_user WHERE uid = 1", i)))
		if i%64 == 0 || i == shapes-1 {
			calls := metrics(t, s)["digest.calls"]
			if calls < last {
				t.Fatalf("digest.calls ran backwards at statement %d: %d -> %d", i, last, calls)
			}
			last = calls
		}
	}
	if last != shapes {
		t.Fatalf("digest.calls = %d after %d statements", last, shapes)
	}
	got := rows(t, exec(t, s, "SHOW STATEMENT DIGESTS ORDER BY calls"))
	live, evicted := got[:len(got)-1], got[len(got)-1]
	if len(live) > plancache.DefaultCapacity {
		t.Fatalf("%d live shapes in a table of %d", len(live), plancache.DefaultCapacity)
	}
	for _, r := range live {
		if r[0].S == plancache.EvictedID || r[2].I != 1 {
			t.Fatalf("live row: %v", r)
		}
	}
	if evicted[0].S != plancache.EvictedID || evicted[2].I != int64(shapes-len(live)) || evicted[5].I != evicted[2].I {
		t.Fatalf("evicted row %v beside %d live shapes of %d", evicted, len(live), shapes)
	}
	if m := metrics(t, s); m["digest.shapes"] != int64(len(live)) || m["digest.evictions"] != evicted[2].I || m["digest.rows"] != shapes {
		t.Fatalf("digest metrics: shapes %d evictions %d rows %d", m["digest.shapes"], m["digest.evictions"], m["digest.rows"])
	}

	exec(t, s, "RESET DIGESTS")
	if got := rows(t, exec(t, s, "SHOW STATEMENT DIGESTS")); len(got) != 0 {
		t.Fatalf("rows after RESET DIGESTS: %v", got)
	}
	if m := metrics(t, s); m["digest.calls"] != 0 || m["digest.shapes"] != 0 {
		t.Fatalf("digest metrics after RESET DIGESTS: calls %d shapes %d", m["digest.calls"], m["digest.shapes"])
	}
}

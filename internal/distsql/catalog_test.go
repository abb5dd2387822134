package distsql

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"shardingsphere/internal/core"
	"shardingsphere/internal/registry"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sights"
	"shardingsphere/internal/storage"
)

// peers builds two kernels, A and B, that share one registry and the same
// two engines, each with its governor installed.
func peers(t *testing.T) (kA *core.Kernel, sA *core.Session, kB *core.Kernel, sB *core.Session) {
	t.Helper()
	reg := registry.New()
	engines := []*storage.Engine{storage.NewEngine("ds0"), storage.NewEngine("ds1")}
	mk := func() (*core.Kernel, *core.Session) {
		sources := map[string]*resource.DataSource{}
		for _, e := range engines {
			sources[e.Name()] = resource.NewEmbedded(e, nil)
		}
		k, err := core.New(core.Config{Sources: sources, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		h := Install(k)
		t.Cleanup(h.Close)
		s := k.NewSession()
		t.Cleanup(s.Close)
		return k, s
	}
	kA, sA = mk()
	kB, sB = mk()
	return kA, sA, kB, sB
}

// adopted waits until k's rule snapshot is at version v or newer: the
// registry watch delivers every write, and k adopts each newer one.
func adopted(t *testing.T, k *core.Kernel, v int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); k.Rules().Version < v; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("the kernel is at version %d, want %d", k.Rules().Version, v)
		}
	}
}

// catalog renders what a rule snapshot persists: its AutoTable rules with
// their nodes, binding groups, broadcast tables, default source and table
// definitions.
func catalog(rs *sharding.RuleSet) string {
	var parts []string
	for name, r := range rs.Tables {
		parts = append(parts, fmt.Sprintf("rule %s %+v %v", name, *r.AutoSpec, r.DataNodes))
	}
	for t := range rs.Broadcast {
		parts = append(parts, "broadcast "+t)
	}
	for name, d := range rs.Defs {
		parts = append(parts, fmt.Sprintf("def %s %v %v", name, d.Columns, d.PrimaryKey))
	}
	sort.Strings(parts)
	return fmt.Sprintf("%s bindings %v default %s", strings.Join(parts, "; "), rs.BindingGroups, rs.DefaultDataSource)
}

// TestPeerRoutesOnTheCurrentCatalog: a table A drops and creates again
// with another key kind is routed by B on the new kind. B learns A's rule,
// and the table's definition, from the registry alone.
func TestPeerRoutesOnTheCurrentCatalog(t *testing.T) {
	kA, sA, kB, sB := peers(t)
	exec(t, sA, createUserRule)
	adopted(t, kB, kA.Rules().Version)
	if _, ok := kB.Rules().Rule("t_user"); !ok {
		t.Fatal("B has no rule for t_user")
	}
	exec(t, sA, "CREATE TABLE t_user (uid VARCHAR(10) PRIMARY KEY, v INT)")
	adopted(t, kB, kA.Rules().Version)
	rows(t, exec(t, sB, "SELECT v FROM t_user WHERE uid = '07'"))
	for _, sql := range []string{"DROP TABLE t_user", "CREATE TABLE t_user (uid INT PRIMARY KEY, v INT)", "INSERT INTO t_user (uid, v) VALUES (7, 1)"} {
		exec(t, sA, sql)
	}
	adopted(t, kB, kA.Rules().Version)
	if got := rows(t, exec(t, sB, "SELECT v FROM t_user WHERE uid = '07'")); len(got) != 1 || got[0][0].I != 1 {
		t.Fatalf("B's uid = '07': %v, want the row of 7", got)
	}
	exec(t, sB, "INSERT INTO t_user VALUES ('08', 2)")
	if got := rows(t, exec(t, sA, "SELECT v FROM t_user WHERE uid = 8")); len(got) != 1 || got[0][0].I != 2 {
		t.Fatalf("A's uid = 8 after B's INSERT of '08': %v, want the row of 8", got)
	}
}

// TestPeersConverge: after each change A makes, to a rule, a binding
// group, a broadcast table or a table, B holds A's catalog at A's version
// and answers from it. Each change is one document write, and makes each
// kernel's kept plans stale once.
func TestPeersConverge(t *testing.T) {
	kA, sA, kB, sB := peers(t)
	for i := 0; i < sights.Keep; i++ {
		exec(t, sA, "SELECT 1")
		exec(t, sB, "SELECT 1")
	}
	rule := func(verb string, count int) string {
		return fmt.Sprintf(`%s SHARDING TABLE RULE t_a (RESOURCES(ds0, ds1), SHARDING_COLUMN = id, TYPE = mod, PROPERTIES("sharding-count" = %d))`, verb, count)
	}
	steps := []struct{ sql, query, want string }{
		{rule("CREATE", 2), "PREVIEW SELECT * FROM t_a", "2 rows"},
		{"CREATE TABLE t_a (id INT PRIMARY KEY, v INT)", "SELECT COUNT(*) FROM t_a", "[(0)]"},
		{"INSERT INTO t_a (id, v) VALUES (1, 10), (2, 20), (3, 30)", "SELECT COUNT(*) FROM t_a", "[(3)]"},
		{rule("ALTER", 4), "PREVIEW SELECT * FROM t_a", "4 rows"},
		{"CREATE TABLE IF NOT EXISTS t_a (id INT PRIMARY KEY, v INT)", "PREVIEW SELECT v FROM t_a WHERE id = 6", "[(ds0, SELECT v FROM t_a_2 WHERE id = ?, [6])]"},
		{createUserRule, "SHOW SHARDING TABLE RULE t_user", "1 rows"},
		{"CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(32))", "SHOW SHARDING TABLE RULES", "2 rows"},
		{"CREATE BINDING TABLE RULES (t_a, t_user)", "SHOW BINDING TABLE RULES", "[(t_a, t_user)]"},
		{"DROP BINDING TABLE RULES (t_a, t_user)", "SHOW BINDING TABLE RULES", "[]"},
		{"CREATE BROADCAST TABLE RULE t_dict", "SHOW BROADCAST TABLE RULES", "[(t_dict)]"},
		{"CREATE TABLE t_dict (k INT PRIMARY KEY, w INT)", "PREVIEW INSERT INTO t_dict (k, w) VALUES (1, 1)", "2 rows"},
		{"DROP TABLE t_user", "DESCRIBE t_user_0", "error"},
		{"DROP SHARDING TABLE RULE t_user", "SHOW SHARDING TABLE RULES", "1 rows"},
	}
	for _, st := range steps {
		// A's change writes one version, which B adopts; an INSERT changes
		// no rule.
		want := int64(1)
		if strings.HasPrefix(st.sql, "INSERT") {
			want = 0
		}
		v := kA.Rules().Version + want
		exec(t, sA, st.sql)
		if kA.Rules().Version != v {
			t.Fatalf("%s left A at version %d, want %d", st.sql, kA.Rules().Version, v)
		}
		adopted(t, kB, v)
		if a, b := catalog(kA.Rules()), catalog(kB.Rules()); a != b || kB.Rules().Version != v {
			t.Fatalf("after %s: B at version %d holds\n%s\nA at version %d holds\n%s", st.sql, kB.Rules().Version, b, v, a)
		}
		var got string
		if res, err := sB.Execute(st.query); err != nil {
			got = "error"
		} else if r := rows(t, res); strings.HasSuffix(st.want, "rows") {
			got = fmt.Sprintf("%d rows", len(r))
		} else {
			got = fmt.Sprint(r)
		}
		if got != st.want {
			t.Errorf("after %s, B's %s: %s, want %s", st.sql, st.query, got, st.want)
		}
		replan := [2]uint64{uint64(want), 0}
		if a, b := replans(t, kA, sA, "SELECT 1"), replans(t, kB, sB, "SELECT 1"); a != replan || b != replan {
			t.Errorf("after %s the warm shape missed %v times on A and %v on B, want %v", st.sql, a, b, replan)
		}
	}
}

// TestOneInvalidationPerRuleChange: a DistSQL rule change is one document
// write, which the kernel that makes it and its peer each publish once: a
// warm shape misses once on each, then hits. The kernels take turns, and
// the watch delivers in write order: once a kernel has adopted its peer's
// next version, it has seen the echo of its own write, which is not newer
// than its snapshot and publishes nothing.
func TestOneInvalidationPerRuleChange(t *testing.T) {
	kA, sA, kB, sB := peers(t)
	for i := 0; i < sights.Keep; i++ {
		exec(t, sA, "SELECT 1")
		exec(t, sB, "SELECT 1")
	}
	const changes = 5
	for i := 0; i < changes; i++ {
		maker, sm, peer, sp := kA, sA, kB, sB
		if i%2 == 1 {
			maker, sm, peer, sp = kB, sB, kA, sA
		}
		v := maker.Rules().Version + 1
		exec(t, sm, fmt.Sprintf(`CREATE SHARDING TABLE RULE t_%d (RESOURCES(ds0, ds1), SHARDING_COLUMN = id, TYPE = mod, PROPERTIES("sharding-count" = 2))`, i))
		if maker.Rules().Version != v {
			t.Fatalf("change %d left its maker at version %d, want %d", i, maker.Rules().Version, v)
		}
		adopted(t, peer, v)
		if peer.Rules().Version != v {
			t.Fatalf("change %d: the peer is at version %d, want %d", i, peer.Rules().Version, v)
		}
		if m, p := replans(t, maker, sm, "SELECT 1"), replans(t, peer, sp, "SELECT 1"); m != [2]uint64{1, 0} || p != [2]uint64{1, 0} {
			t.Fatalf("change %d: the warm shape missed %v times on its maker and %v on the peer, want once, then a hit", i, m, p)
		}
	}
}

// TestPeersRaceOnRules: when A and B create the same rule at once, exactly
// one succeeds and the other is told the rule exists; when they create
// different rules at once, both rules land on both kernels. Either way
// both kernels end on the same version of one document.
func TestPeersRaceOnRules(t *testing.T) {
	kA, sA, kB, sB := peers(t)
	race := func(sqlA, sqlB string) (errA, errB error) {
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); <-start; _, errA = sA.Execute(sqlA) }()
		go func() { defer wg.Done(); <-start; _, errB = sB.Execute(sqlB) }()
		close(start)
		wg.Wait()
		v := max(kA.Rules().Version, kB.Rules().Version)
		adopted(t, kA, v)
		adopted(t, kB, v)
		if a, b := catalog(kA.Rules()), catalog(kB.Rules()); a != b || kA.Rules().Version != kB.Rules().Version {
			t.Fatalf("A at version %d holds\n%s\nB at version %d holds\n%s", kA.Rules().Version, a, kB.Rules().Version, b)
		}
		return errA, errB
	}
	errA, errB := race(createUserRule, createUserRule)
	if (errA == nil) == (errB == nil) {
		t.Fatalf("the same rule created twice at once: A %v, B %v; want exactly one error", errA, errB)
	}
	if err := cmpErr(errA, errB); !strings.Contains(err.Error(), "exists; use ALTER") {
		t.Fatalf("the loser's error: %v", err)
	}
	rule := func(table string) string {
		return fmt.Sprintf(`CREATE SHARDING TABLE RULE %s (RESOURCES(ds0, ds1), SHARDING_COLUMN = id, TYPE = mod, PROPERTIES("sharding-count" = 2))`, table)
	}
	if errA, errB = race(rule("t_x"), rule("t_y")); errA != nil || errB != nil {
		t.Fatalf("different rules created at once: A %v, B %v", errA, errB)
	}
	for _, k := range []*core.Kernel{kA, kB} {
		names := k.Rules().LogicTables()
		slices.Sort(names)
		if !slices.Equal(names, []string{"t_user", "t_x", "t_y"}) {
			t.Fatalf("rules %v, want t_user, t_x and t_y", names)
		}
	}
}

func cmpErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

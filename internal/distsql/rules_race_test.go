package distsql

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"shardingsphere/internal/core"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sqltypes"
)

// TestRuleChangesBesideQueries: one session creates, alters and drops
// sharding rules, binding groups and broadcast tables while others run
// point and range SELECTs on a table whose rule never changes. Every
// answer must be right, and under -race no statement may read a rule set
// a change is writing. Each change waits until the readers have finished
// two more statements, so changes and reads interleave without sleeps.
func TestRuleChangesBesideQueries(t *testing.T) {
	k, s, _ := fixture(t)
	const users = 16
	exec(t, s, createUserRule)
	exec(t, s, "CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(32))")
	for i := 0; i < users; i++ {
		exec(t, s, fmt.Sprintf("INSERT INTO t_user (uid, name) VALUES (%d, 'u%d')", i, i))
	}

	const readers = 2
	var reads atomic.Int64
	done := make(chan struct{})
	errs := make(chan error, readers+1)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sess := k.NewSession()
			defer sess.Close()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if err := checkUserReads(sess, i%users, users); err != nil {
					errs <- err
					return
				}
				reads.Add(1)
			}
		}(r)
	}

	// change runs one DistSQL statement, then waits for two more reads.
	change := func(sql string) error {
		if _, err := s.Execute(sql); err != nil {
			return fmt.Errorf("%s: %w", sql, err)
		}
		for seen := reads.Load(); reads.Load() < seen+2; {
			if len(errs) > 0 {
				return nil
			}
			runtime.Gosched()
		}
		return nil
	}
	rule := func(verb, table string, count int) string {
		return fmt.Sprintf(`%s SHARDING TABLE RULE %s (RESOURCES(ds0, ds1), SHARDING_COLUMN = id, TYPE = mod, PROPERTIES("sharding-count" = %d))`, verb, table, count)
	}
	for round := 0; round < 5 && len(errs) == 0; round++ {
		a, b := fmt.Sprintf("t_a%d", round), fmt.Sprintf("t_b%d", round)
		for _, sql := range []string{
			rule("CREATE", a, 2),
			rule("CREATE", b, 2),
			rule("ALTER", a, 4),
			rule("ALTER", b, 4),
			fmt.Sprintf("CREATE BINDING TABLE RULES (%s, %s)", a, b),
			fmt.Sprintf("CREATE BROADCAST TABLE RULE t_dict%d", round),
			fmt.Sprintf("DROP BINDING TABLE RULES (%s, %s)", a, b),
			"DROP SHARDING TABLE RULE " + a,
			"DROP SHARDING TABLE RULE " + b,
		} {
			if err := change(sql); err != nil {
				errs <- err
				break
			}
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// checkUserReads runs a point and a range SELECT on t_user, which holds
// uids 0..users-1 named u<uid>, and checks both answers.
func checkUserReads(sess *core.Session, uid, users int) error {
	read := func(sql string, args ...sqltypes.Value) ([]sqltypes.Row, error) {
		rs, err := sess.Query(sql, args...)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sql, err)
		}
		return resource.ReadAll(rs)
	}
	got, err := read("SELECT name FROM t_user WHERE uid = ?", sqltypes.NewInt(int64(uid)))
	if err != nil {
		return err
	}
	if want := fmt.Sprintf("u%d", uid); len(got) != 1 || got[0][0].AsString() != want {
		return fmt.Errorf("uid %d: got %v, want %s", uid, got, want)
	}
	hi := min(uid+3, users-1)
	got, err = read("SELECT COUNT(*) FROM t_user WHERE uid BETWEEN ? AND ?", sqltypes.NewInt(int64(uid)), sqltypes.NewInt(int64(hi)))
	if err != nil {
		return err
	}
	if want := int64(hi - uid + 1); len(got) != 1 || got[0][0].I != want {
		return fmt.Errorf("uids %d..%d: got %v, want count %d", uid, hi, got, want)
	}
	return nil
}

// TestCloneIsolatesRuleChanges: each rule mutator applied to a clone
// leaves the set it was cloned from answering as before — the published
// snapshot a change is made beside.
func TestCloneIsolatesRuleChanges(t *testing.T) {
	tables := []string{"t_a", "t_b", "t_c", "t_d", "t_e"}
	published := sharding.NewRuleSet()
	for _, name := range tables[:4] {
		published.AddRule(autoRule(t, name))
	}
	for _, group := range [][]string{{"t_a", "t_b"}, {"t_c", "t_d"}} {
		if err := published.AddBindingGroup(group...); err != nil {
			t.Fatal(err)
		}
	}
	answers := func(rs *sharding.RuleSet) string {
		var b strings.Builder
		for _, x := range tables {
			rule, _ := rs.Rule(x)
			fmt.Fprintf(&b, "%s rule=%p broadcast=%v bound:", x, rule, rs.Broadcast[x])
			for _, y := range tables {
				fmt.Fprintf(&b, " %v", rs.Bound(x, y))
			}
			b.WriteString("\n")
		}
		return b.String()
	}
	want := answers(published)
	for name, change := range map[string]func(*sharding.RuleSet) error{
		"AddRule new":     func(rs *sharding.RuleSet) error { rs.AddRule(autoRule(t, "t_e")); return nil },
		"AddRule replace": func(rs *sharding.RuleSet) error { rs.AddRule(autoRule(t, "t_a")); return nil },
		"RemoveRule": func(rs *sharding.RuleSet) error {
			rs.RemoveRule("t_a")
			rs.RemoveRule("t_d")
			return nil
		},
		"AddBindingGroup": func(rs *sharding.RuleSet) error { return rs.AddBindingGroup("t_a", "t_c") },
		"Broadcast":       func(rs *sharding.RuleSet) error { rs.Broadcast["t_e"] = true; return nil },
		"dropBindingGroup": func(rs *sharding.RuleSet) error {
			dropBindingGroup(rs, []string{"t_a", "t_b"})
			return nil
		},
	} {
		clone := published.Clone()
		if err := change(clone); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if answers(clone) == want {
			t.Errorf("%s changed nothing", name)
		}
		if got := answers(published); got != want {
			t.Errorf("%s on a clone changed the original:\n got %s\nwant %s", name, got, want)
		}
	}
}

func autoRule(t *testing.T, table string) *sharding.TableRule {
	t.Helper()
	rule, err := sharding.BuildAutoRule(sharding.AutoTableSpec{
		LogicTable: table, Resources: []string{"ds0", "ds1"},
		ShardingColumn: "id", AlgorithmType: "MOD", ShardingCount: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rule
}

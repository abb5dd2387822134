package distsql

import (
	"errors"
	"strings"
	"testing"

	"shardingsphere/internal/sqlparser"
)

// spellings returns kw in upper, lower and alternating case, each behind
// leading whitespace and in front of a semicolon.
func spellings(kw string) []string {
	mixed := []byte(strings.ToLower(kw))
	for i := 0; i < len(mixed); i += 2 {
		if mixed[i] >= 'a' && mixed[i] <= 'z' {
			mixed[i] -= 'a' - 'A'
		}
	}
	return []string{" \t\n" + kw + ";", "  " + strings.ToLower(kw) + " ;", "\r\n" + string(mixed) + ";"}
}

func TestVerbKeywordsUniqueAndUnshadowed(t *testing.T) {
	for i, a := range verbs {
		if len(a.words) == 0 || strings.Join(a.words, " ") != a.kw || a.kw != strings.ToUpper(a.kw) {
			t.Errorf("row %d: keywords %q are not single-spaced upper case", i, a.kw)
		}
		for j, b := range verbs {
			if i == j || len(a.words) > len(b.words) {
				continue
			}
			if strings.Join(b.words[:len(a.words)], " ") == a.kw {
				t.Errorf("%q shadows %q", a.kw, b.kw)
			}
		}
	}
}

func TestEveryVerbMatchesAndResolvesToItsRow(t *testing.T) {
	var h Handler
	for i := range verbs {
		v := &verbs[i]
		for _, sql := range spellings(v.kw) {
			if !h.Match(sql) {
				t.Errorf("Match(%q) = false", sql)
			}
			if n := testing.AllocsPerRun(10, func() { h.Match(sql) }); n != 0 {
				t.Errorf("Match(%q) allocates %v times", sql, n)
			}
			got, rest, err := lookup(sql)
			if err != nil || got != v {
				t.Errorf("lookup(%q) = %v, %v; want row %q", sql, got, err, v.kw)
			} else if strings.Trim(rest, " ;") != "" {
				t.Errorf("lookup(%q) left %q", sql, rest)
			}
		}
	}
}

func TestMatchRejectsSQLWithoutAllocating(t *testing.T) {
	var h Handler
	for _, sql := range []string{
		"SELECT name FROM t_user WHERE uid = 5",
		"INSERT INTO t_user (uid, name) VALUES (1, 'SHOW STATUS')",
		"UPDATE t_user SET name = 'x' WHERE uid = 1",
		"DELETE FROM t_user WHERE uid = 1",
		"BEGIN", "COMMIT", "SHOW TABLES", "SET autocommit = 1", "DESCRIBE t",
		"CREATE TABLE t (id INT PRIMARY KEY)", "DROP TABLE t",
		"add resource ds2 (HOST=h)", "drop resource ds2",
		"SHOWSTATUS", "TRACER SELECT 1", "", "   ",
	} {
		if h.Match(sql) {
			t.Errorf("Match(%q) = true", sql)
		}
		if n := testing.AllocsPerRun(10, func() { h.Match(sql) }); n != 0 {
			t.Errorf("Match(%q) allocates %v times", sql, n)
		}
	}
}

// The resource verbs were sniffed as DistSQL but never had a production;
// they are now what the SQL parser says they are.
func TestResourceVerbsFallThroughToSQLParser(t *testing.T) {
	_, s, _ := fixture(t)
	for _, sql := range []string{"add resource ds2 (HOST=h)", "drop resource ds2"} {
		_, err := s.Execute(sql)
		var pe *sqlparser.ParseError
		if !errors.As(err, &pe) {
			t.Errorf("%s: want a SQL parse error, got %v", sql, err)
		}
	}
}

func TestMalformedDistSQLNamesTheExpectedKeyword(t *testing.T) {
	_, s, _ := fixture(t)
	for sql, want := range map[string]string{
		"SHOW SHARDING":                        `distsql: expected "TABLE", got ""`,
		"SHOW ADMISSION":                       `distsql: expected "STATUS", got ""`,
		"show cluster nodes":                   `distsql: expected "METRICS", got "nodes"`,
		"SHOW HOT KEY":                         `distsql: expected "KEYS", got "KEY"`,
		"SET VARIABLE":                         `distsql: expected identifier`,
		"SHOW STATUS now":                      `distsql: trailing input after statement: "now"`,
		"DROP SHARDING TABLE RULE":             `distsql: expected identifier`,
		"TRACE":                                `distsql: TRACE needs a statement`,
		"SHOW STATEMENT DIGESTS ORDER BY rows": `distsql: ORDER BY wants total_time or calls`,
	} {
		if _, err := s.Execute(sql); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want %s", sql, err, want)
		}
	}
}

func TestVerbatimPayloadIsNotLexed(t *testing.T) {
	_, s, _ := fixture(t)
	exec(t, s, createUserRule)
	// The trailing semicolon goes; everything else reaches the SQL parser
	// as written, so its error quotes the payload, not the DistSQL.
	got := rows(t, exec(t, s, "preview  SELECT * FROM t_user WHERE uid = 5 ;"))
	if len(got) != 1 || !strings.Contains(got[0][1].S, "uid = ?") || got[0][2].S != "[5]" {
		t.Fatalf("preview: %v", got)
	}
	_, err := s.Execute("PREVIEW SELEC 1")
	var pe *sqlparser.ParseError
	if !errors.As(err, &pe) || pe.SQL != "SELEC 1" {
		t.Fatalf("want the payload's parse error, got %v", err)
	}
}

func TestVariablesRoundTrip(t *testing.T) {
	_, s, _ := admissionFixture(t)
	cases := map[string][2]string{ // name -> value set, value shown
		"transaction_type":        {"'XA'", "XA"},
		"statement_timeout_ms":    {"250", "250"},
		"slow_query_threshold_ms": {"12", "12"},
		"slow_query_log_size":     {"9", "9"},
		"slow_query_raw_sql":      {"on", "true"},
		"stage_sampling":          {"4", "4"},
		"hotkey_tracking":         {"true", "true"},
		"circuit_break":           {"'ds1:off'", ""},
		"admission_quota":         {"'gold:3'", ""},
	}
	for _, v := range variables {
		c, ok := cases[v.name]
		if !ok {
			t.Errorf("variable %s has no round-trip case", v.name)
			continue
		}
		exec(t, s, "SET VARIABLE "+v.name+" = "+c[0])
		res, err := s.Execute("SHOW VARIABLE " + strings.ToUpper(v.name))
		if v.get == nil {
			if !errors.Is(err, ErrWriteOnly) {
				t.Errorf("SHOW VARIABLE %s: want ErrWriteOnly, got %v", v.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("SHOW VARIABLE %s: %v", v.name, err)
			continue
		}
		if got := rows(t, res); res.RS.Columns()[0] != v.name || got[0][0].S != c[1] {
			t.Errorf("SHOW VARIABLE %s = %v (column %v), want %s", v.name, got, res.RS.Columns(), c[1])
		}
	}
	// A name outside the table is a plain session variable.
	exec(t, s, "SET VARIABLE tenant = 'gold'")
	if got := rows(t, exec(t, s, "SHOW VARIABLE tenant")); got[0][0].S != "gold" {
		t.Fatalf("tenant: %v", got)
	}
	if got := rows(t, exec(t, s, "SHOW VARIABLE never_set")); got[0][0].S != "" {
		t.Fatalf("never_set: %v", got)
	}
}

// SET name = v and SET VARIABLE name = v are one code path for the two
// session-scoped names: same validation, same effect, same read-back.
func TestSessionVariablesHaveOnePath(t *testing.T) {
	_, s, _ := fixture(t)
	exec(t, s, "SET statement_timeout_ms = 150")
	if got := rows(t, exec(t, s, "SHOW VARIABLE statement_timeout_ms")); got[0][0].S != "150" {
		t.Fatalf("after SET: %v", got)
	}
	exec(t, s, "SET VARIABLE statement_timeout_ms = 0")
	if s.StatementTimeout() != 0 {
		t.Fatalf("after SET VARIABLE: %v", s.StatementTimeout())
	}
	for _, bad := range []string{
		"SET statement_timeout_ms = -1", "SET VARIABLE statement_timeout_ms = -1",
		"SET statement_timeout_ms = 'soon'", "SET VARIABLE statement_timeout_ms = soon",
		"SET transaction_type = 'BOGUS'", "SET VARIABLE transaction_type = BOGUS",
	} {
		if _, err := s.Execute(bad); err == nil {
			t.Errorf("%s: accepted", bad)
		}
	}
}

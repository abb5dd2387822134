// Package distsql implements DistSQL (paper Section V-A), the SQL-like
// management language that "breaks the boundary between middlewares and
// databases": RDL defines resources and rules (including the AutoTable
// strategy), RQL queries them, and RAL administers the runtime (switching
// transaction types, circuit breaking, previewing routes).
//
// The language is the verbs table below: one row per verb, holding its
// keywords, its argument parser and its handler. Recognising DistSQL in
// front of the SQL parser (Match), finding a statement's verb (lookup) and
// running it (Execute) are loops over that table; to add a verb, add a row.
package distsql

import (
	"fmt"
	"strings"

	"shardingsphere/internal/core"
)

// verb is one DistSQL statement form.
type verb struct {
	kw    string   // the keywords that open the statement, upper case
	words []string // kw split at spaces (filled by init)
	// exec parses what follows the keywords in sql and runs the handler.
	exec func(h *Handler, sess *core.Session, sql, args string) (*core.Result, error)
}

// plain is a verb that takes no arguments.
func plain(kw string, run func(*Handler, *core.Session) (*core.Result, error)) verb {
	return withArgs(kw, func(*parser) (struct{}, error) { return struct{}{}, nil },
		func(h *Handler, sess *core.Session, _ struct{}) (*core.Result, error) { return run(h, sess) })
}

// withArgs is a verb whose arguments parse hands straight to run.
func withArgs[A any](kw string, parse func(*parser) (A, error), run func(*Handler, *core.Session, A) (*core.Result, error)) verb {
	return verb{kw: kw, exec: func(h *Handler, sess *core.Session, sql, args string) (*core.Result, error) {
		p, err := newParser(sql, args)
		if err != nil {
			return nil, err
		}
		a, err := parse(p)
		if err == nil {
			err = p.end()
		}
		if err != nil {
			return nil, err
		}
		return run(h, sess, a)
	}}
}

// verbatim is a verb whose argument is a SQL statement handed to run
// untouched: the lexer never sees it.
func verbatim(kw string, run func(*Handler, *core.Session, string) (*core.Result, error)) verb {
	return verb{kw: kw, exec: func(h *Handler, sess *core.Session, _, args string) (*core.Result, error) {
		payload := strings.TrimSuffix(strings.TrimSpace(args), ";")
		if payload == "" {
			return nil, fmt.Errorf("distsql: %s needs a statement", kw)
		}
		return run(h, sess, payload)
	}}
}

// verbs is DistSQL. No row's keywords are a prefix of another's, so order
// carries no meaning beyond grouping.
var verbs = []verb{
	// RDL: define rules.
	withArgs("CREATE SHARDING TABLE RULE", (*parser).ruleSpec, (*Handler).createRule),
	withArgs("ALTER SHARDING TABLE RULE", (*parser).ruleSpec, (*Handler).alterRule),
	withArgs("DROP SHARDING TABLE RULE", (*parser).ident, (*Handler).dropRule),
	withArgs("CREATE BINDING TABLE RULES", (*parser).parenNames, (*Handler).createBinding),
	withArgs("DROP BINDING TABLE RULES", (*parser).parenNames, (*Handler).dropBinding),
	withArgs("CREATE BROADCAST TABLE RULE", (*parser).names, (*Handler).createBroadcast),

	// RQL: query rules and resources.
	plain("SHOW SHARDING TABLE RULES", (*Handler).showShardingRules),
	withArgs("SHOW SHARDING TABLE RULE", (*parser).ident, (*Handler).showShardingRule),
	plain("SHOW BINDING TABLE RULES", (*Handler).showBindingRules),
	plain("SHOW BROADCAST TABLE RULES", (*Handler).showBroadcastRules),
	plain("SHOW RESOURCES", (*Handler).showResources),

	// RAL: administer and observe the runtime.
	withArgs("SET VARIABLE", (*parser).assignment, (*Handler).setVariable),
	withArgs("SHOW VARIABLE", (*parser).ident, (*Handler).showVariable),
	verbatim("PREVIEW", (*Handler).preview),
	verbatim("TRACE", (*Handler).trace),
	withArgs("RESHARD TABLE", (*parser).ruleSpec, (*Handler).reshard),
	withArgs("RESHARD SHARDING TABLE", (*parser).ruleSpec, (*Handler).reshard),
	withArgs("INJECT FAULT", (*parser).faultSpec, (*Handler).injectFault),
	withArgs("REMOVE FAULT", (*parser).ident, (*Handler).removeFault),
	plain("SHOW FAULTS", (*Handler).showFaults),
	plain("SHOW STATUS", (*Handler).showStatus),
	plain("SHOW PLAN CACHE STATUS", (*Handler).showPlanCache),
	plain("SHOW SQL METRICS", (*Handler).showSQLMetrics),
	plain("SHOW SLOW QUERIES", (*Handler).showSlowQueries),
	plain("SHOW REMOTE STATUS", (*Handler).showRemoteStatus),
	plain("SHOW CLUSTER METRICS", (*Handler).showClusterMetrics),
	plain("SHOW ADMISSION STATUS", (*Handler).showAdmission),
	plain("SHOW TRANSACTION METRICS", (*Handler).showTxnMetrics),
	withArgs("SHOW STATEMENT DIGESTS", (*parser).digestOrder, (*Handler).showDigests),
	plain("SHOW SHARD HEAT", (*Handler).showShardHeat),
	plain("SHOW HOT KEYS", (*Handler).showHotKeys),
	plain("RESET DIGESTS", (*Handler).resetDigests),
}

func init() {
	for i := range verbs {
		verbs[i].words = strings.Fields(verbs[i].kw)
	}
}

// Match reports whether sql opens with the first two keywords of a verb
// (the first, for one-keyword verbs): enough to tell DistSQL from SQL,
// loose enough that a misspelt third keyword still gets a DistSQL error.
// It runs in front of every statement, so it allocates nothing and ordinary
// SQL fails on its first word.
func (h *Handler) Match(sql string) bool {
	first, rest := nextWord(sql)
	second, scanned := "", false
	for i := range verbs {
		w := verbs[i].words
		if !isKeyword(first, w[0]) {
			continue
		}
		if len(w) == 1 {
			return true
		}
		if !scanned {
			second, _ = nextWord(rest)
			scanned = true
		}
		if isKeyword(second, w[1]) {
			return true
		}
	}
	return false
}

// lookup finds the verb whose keywords open sql and returns it with the
// text after them. When no verb matches in full, the error names the
// keyword the closest verb expected next.
func lookup(sql string) (*verb, string, error) {
	var closest *verb
	matched, got := -1, ""
	for i := range verbs {
		v := &verbs[i]
		rest, n, word := sql, 0, ""
		for n < len(v.words) {
			w, next := nextWord(rest)
			if word = w; !isKeyword(w, v.words[n]) {
				break
			}
			rest, n = next, n+1
		}
		if n == len(v.words) {
			return v, rest, nil
		}
		if n > matched {
			closest, matched, got = v, n, word
		}
	}
	return nil, "", fmt.Errorf("distsql: expected %q, got %q in %q", closest.words[matched], got, sql)
}

// Execute parses and runs one DistSQL statement.
func (h *Handler) Execute(sess *core.Session, sql string) (*core.Result, error) {
	sql = strings.TrimSpace(sql)
	v, args, err := lookup(sql)
	if err != nil {
		return nil, err
	}
	return v.exec(h, sess, sql, args)
}

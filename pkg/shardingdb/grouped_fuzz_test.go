package shardingdb

import (
	"strings"
	"testing"
)

// groupedStatement builds a grouped SELECT over table t from fuzzed
// choices, in placeholder form with its arguments:
//
//   - agg: the aggregate, COUNT/SUM/MIN/MAX/AVG (agg%5), plain or DISTINCT
//     (agg/5%2), over *, v, k or v % ? (agg/10%4; * is COUNT(*) only);
//   - key: GROUP BY k, GROUP BY v % ? (key/3%3 picks the modulus) or none;
//   - having: none, or HAVING <agg> > having/3%20;
//   - order: none, the key, the aggregate or its ordinal, DESC when
//     order/4 is odd; a grouped order ends with the key, so it is total;
//   - limit: none, LIMIT 1, LIMIT 2 or LIMIT 1, 2.
//
// ordered reports that the statement's ORDER BY decides every row's place.
func groupedStatement(agg, key, having, order, limit uint8) (sql string, args []Value, ordered bool) {
	var b strings.Builder
	put := func(text string, vals ...Value) {
		b.WriteString(text)
		args = append(args, vals...)
	}
	fn := []string{"COUNT", "SUM", "MIN", "MAX", "AVG"}[agg%5]
	distinct := agg/5%2 == 1
	arg := []string{"*", "v", "k", "v % ?"}[agg/10%4]
	if arg == "*" && (fn != "COUNT" || distinct) {
		arg = "v"
	}
	aggregate := func() {
		put(fn + "(")
		if distinct {
			put("DISTINCT ")
		}
		if arg == "v % ?" {
			put(arg+")", Int(4))
		} else {
			put(arg + ")")
		}
	}
	grouped := key%3 != 2
	keyExpr := func() {
		if key%3 == 0 {
			put("k")
		} else {
			put("v % ?", Int(int64(2+key/3%3)))
		}
	}

	put("SELECT ")
	if grouped {
		keyExpr()
		put(", ")
	}
	aggregate()
	put(" FROM t")
	if grouped {
		put(" GROUP BY ")
		keyExpr()
	}
	if having%3 != 0 {
		put(" HAVING ")
		aggregate()
		put(" > ?", Int(int64(having/3%20)))
	}
	desc := ""
	if order/4%2 == 1 {
		desc = " DESC"
	}
	var orderBy []func()
	switch {
	case order%4 == 1 && grouped:
		orderBy = append(orderBy, func() { keyExpr(); put(desc) })
	case order%4 == 2:
		orderBy = append(orderBy, func() { aggregate(); put(desc) })
	case order%4 == 3 && grouped:
		orderBy = append(orderBy, func() { put("2" + desc) })
	case order%4 == 3:
		orderBy = append(orderBy, func() { put("1" + desc) })
	}
	if grouped && (order%4 > 1 || limit%4 != 0) {
		// The key, unique per group: the order is total.
		orderBy = append(orderBy, func() { put("1") })
	}
	for i, item := range orderBy {
		put([]string{" ORDER BY ", ", "}[min(i, 1)])
		item()
	}
	ordered = len(orderBy) > 0
	switch limit % 4 {
	case 1, 2:
		put(" LIMIT ?", Int(int64(limit%4)))
	case 3:
		put(" LIMIT ?, ?", Int(1), Int(2))
	}
	return b.String(), args, ordered
}

// FuzzGroupedMatchesOneEngine runs grouped statements (groupedStatement)
// against table t in four shards over two sources, at MaxCon 4 and at
// MaxCon 1 (a source's units share one connection's window), and holds
// each answer to one sqlexec.Processor holding the same rows: the rows as
// a multiset and, when the ORDER BY decides it, their sequence. Its seeds
// are the grouped shapes that once merged wrong across shards.
func FuzzGroupedMatchesOneEngine(f *testing.F) {
	ref := oneEngineRef(f)
	dbs := []*Session{oneEngineDB(f, "mysql", 4),
		layoutDB(f, "mysql", oneEngineLayout{tShards: 4, uShards: 4, resources: "ds0, ds1", maxCon: 1})}
	for _, seed := range [][5]uint8{
		{25, 2, 0, 0, 0},  // SELECT COUNT(DISTINCT k) FROM t
		{26, 2, 0, 0, 0},  // SELECT SUM(DISTINCT k) FROM t
		{0, 0, 10, 0, 0},  // SELECT k, COUNT(*) FROM t GROUP BY k HAVING COUNT(*) > 3
		{0, 2, 16, 0, 0},  // SELECT COUNT(*) FROM t HAVING COUNT(*) > 5
		{14, 0, 19, 0, 0}, // SELECT k, AVG(v) FROM t GROUP BY k HAVING AVG(v) > 6
		{11, 0, 0, 6, 1},  // SELECT k, SUM(v) FROM t GROUP BY k ORDER BY SUM(v) DESC, 1 LIMIT 1
		{0, 0, 0, 7, 1},   // SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY 2 DESC, 1 LIMIT 1
		{0, 0, 0, 6, 0},   // SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY COUNT(*) DESC, 1
		{39, 4, 4, 5, 3},  // SELECT v % ?, AVG(DISTINCT v % ?) FROM t GROUP BY v % ? HAVING … ORDER BY v % ? DESC LIMIT ?, ?
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3], seed[4])
	}
	f.Fuzz(func(t *testing.T, agg, key, having, order, limit uint8) {
		sql, args, ordered := groupedStatement(agg, key, having, order, limit)
		want, wantErr := ref.Execute(sql, args...)
		for i, s := range dbs {
			got, err := s.QueryAll(sql, args...)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s %v (database %d): kernel error %v, one engine %v", sql, args, i, err, wantErr)
			}
			if err != nil {
				continue
			}
			var keys []int
			if ordered && len(want.Rows) > 0 {
				for i := range want.Rows[0] {
					keys = append(keys, i)
				}
			}
			if msg := sameAnswer(got, want.Rows, keys); msg != "" {
				t.Fatalf("%s %v (database %d): %s\n got %v\nwant %v", sql, args, i, msg, got, want.Rows)
			}
		}
	})
}

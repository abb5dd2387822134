package shardingdb

import (
	"errors"
	"fmt"
	"testing"

	"shardingsphere/internal/route"
)

// joinStatement builds a join of t a with t b (a self-join) or with u b
// from fuzzed choices:
//
//   - join: INNER, LEFT, RIGHT or a comma join with its condition in WHERE
//     (join%4);
//   - on: the condition equates key with key (a.id = b.id), key with
//     non-key (a.id = b.k) or non-key with non-key (a.k = b.v) (on%3);
//   - pair: a self-join or t with u (pair%2);
//   - extra: nothing, or AND a.id = 3 or AND b.id = 3 beside the
//     condition (extra%3).
func joinStatement(join, on, pair, extra uint8) string {
	right := []string{"t b", "u b"}[pair%2]
	cond := []string{"a.id = b.id", "a.id = b.k", "a.k = b.v"}[on%3] + []string{"", " AND a.id = 3", " AND b.id = 3"}[extra%3]
	if join%4 == 3 {
		return fmt.Sprintf("SELECT a.id, b.id FROM t a, %s WHERE %s", right, cond)
	}
	return fmt.Sprintf("SELECT a.id, b.id FROM t a %s %s ON %s", []string{"JOIN", "LEFT JOIN", "RIGHT JOIN"}[join%4], right, cond)
}

// FuzzJoinMatchesOneEngine runs joins (joinStatement) against t and u in
// four shards each, over one source or two (layout%2), bound or not
// (layout/2%2), each layout at MaxCon 4 and at MaxCon 1, and holds each
// answer to one sqlexec.Processor holding the same rows;
// route.ErrNotColocated counts as a match. Its seeds are the joins that
// once answered wrong.
func FuzzJoinMatchesOneEngine(f *testing.F) {
	ref := oneEngineRef(f)
	var layouts [4][2]*Session
	for i := range layouts {
		for j, maxCon := range []int{4, 1} {
			layouts[i][j] = layoutDB(f, "mysql", oneEngineLayout{tShards: 4, uShards: 4, resources: []string{"ds0", "ds0, ds1"}[i%2], bind: i/2 == 1, maxCon: maxCon})
		}
	}
	for _, seed := range [][5]uint8{
		{0, 2, 0, 0, 1}, // t a JOIN t b ON a.k = b.v, two sources
		{0, 1, 0, 0, 1}, // t a JOIN t b ON a.id = b.k
		{0, 2, 1, 0, 1}, // t a JOIN u b ON a.k = b.v, unbound
		{0, 2, 1, 0, 3}, // the same, bound
		{1, 0, 1, 1, 3}, // t a LEFT JOIN u b ON a.id = b.id AND a.id = 3, bound
		{1, 0, 0, 2, 1}, // t a LEFT JOIN t b ON a.id = b.id AND b.id = 3
		{2, 0, 1, 1, 3}, // t a RIGHT JOIN u b ON a.id = b.id AND a.id = 3, bound
		{1, 1, 1, 0, 0}, // t a LEFT JOIN u b ON a.id = b.k, one source
		{3, 0, 1, 0, 3}, // FROM t a, u b WHERE a.id = b.id, bound
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3], seed[4])
	}
	f.Fuzz(func(t *testing.T, join, on, pair, extra, layout uint8) {
		sql := joinStatement(join, on, pair, extra)
		where := fmt.Sprintf("%s (layout %d)", sql, layout%4)
		want, wantErr := ref.Execute(sql)
		for j, s := range layouts[layout%4] {
			got, err := s.QueryAll(sql)
			if errors.Is(err, route.ErrNotColocated) {
				continue
			}
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s, database %d: kernel error %v, one engine %v", where, j, err, wantErr)
			}
			if err == nil {
				if msg := sameAnswer(got, want.Rows, nil); msg != "" {
					t.Fatalf("%s, database %d: %s\n got %v\nwant %v", where, j, msg, got, want.Rows)
				}
			}
		}
	})
}

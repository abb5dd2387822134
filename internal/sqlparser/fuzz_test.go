package sqlparser

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"shardingsphere/internal/sqltypes"
)

// normalizeSeeds are the statements of normalize_test.go, the shapes of
// the rewrite equivalence table (internal/rewrite/equivalence_test.go) and
// the XA verbs the coordinator sends.
var normalizeSeeds = []string{
	"SELECT * FROM t_order WHERE order_id = 10",
	"SELECT a, b FROM t WHERE id = 7 AND name = 'x' ORDER BY a LIMIT 3",
	"INSERT INTO t (a, b) VALUES (1, 'two'), (3, 'four')",
	"UPDATE t SET a = a + 1, b = 'z' WHERE id = 9",
	"DELETE FROM t WHERE id IN (1, 2, 3)",
	"SELECT * FROM t WHERE x = -5",
	"SELECT COUNT(*) FROM t WHERE id BETWEEN 10 AND 20",
	`SELECT * FROM t WHERE name = 'it''s'`,
	`SELECT * FROM t WHERE name = 'it\'s'`,
	"SELECT * FROM t WHERE id = 1 FOR UPDATE",
	"SELECT * FROM t WHERE a = ? AND b = 5 AND c = ?",
	"SELECT `select` FROM `from` WHERE `select` = 1",
	"SELECT a, b, COUNT(*) FROM t GROUP BY 1, 2 ORDER BY a DESC, 2",
	"SELECT a FROM t WHERE id = 3 ORDER BY 1 FOR UPDATE",
	"SELECT a FROM t ORDER BY 1 LIMIT 1, 3",
	"SELECT COUNT(*) FROM t GROUP BY k % 2",
	"SELECT a FROM t ORDER BY -1",
	"SELECT a FROM t ORDER BY COALESCE(a, 0), 2",
	"SELECT a FROM t ORDER BY (2), a IN (3, 4)",
	"SELECT 0ORDER BY+0",
	"SELECT a FROM t ORDER BY - - 1, -(-2), -(3), + 4",
	// Its own key: the ordinal stays a literal, so normalizing the key
	// gives it back with one identity slot.
	"SELECT c FROM sbtest WHERE id = ? ORDER BY 1",

	"SELECT name FROM t_user WHERE uid BETWEEN ? AND ?",
	"SELECT SUM(age) FROM t_user WHERE uid BETWEEN ? AND ?",
	"SELECT AVG(age), COUNT(*), MAX(age) FROM t_user",
	"SELECT name FROM t_user ORDER BY age DESC, uid",
	"SELECT age, COUNT(*) FROM t_user GROUP BY age",
	"SELECT age, SUM(uid) FROM t_user GROUP BY age ORDER BY SUM(uid)",
	"SELECT DISTINCT name FROM t_user WHERE uid BETWEEN ? AND ? ORDER BY name",
	"SELECT * FROM t_user ORDER BY name",
	"SELECT u.name AS n, u.age a FROM t_user u WHERE u.uid > ? ORDER BY n",
	"SELECT t_user.name FROM t_user WHERE t_user.uid IN (?, ?) ORDER BY t_user.age",
	"SELECT name FROM t_user ORDER BY uid LIMIT ?",
	"SELECT name FROM t_user ORDER BY uid LIMIT ?, ?",
	"SELECT name FROM t_user WHERE uid IN (?, ?) ORDER BY uid LIMIT ?, ? FOR UPDATE",
	"SELECT name FROM t_user WHERE uid = ? ORDER BY age LIMIT 20, 10",
	"UPDATE t_user SET age = age + 1 WHERE name = ?",
	"DELETE FROM t_user WHERE uid IN (?, ?)",
	"SELECT u.name, o.amount FROM t_user u JOIN t_order o ON u.uid = o.uid WHERE u.uid IN (?, ?) ORDER BY o.amount",
	"SELECT t_user.name, t_order.amount FROM t_user JOIN t_order ON t_user.uid = t_order.uid",
	"SELECT u.name FROM t_user u JOIN t_order o ON u.uid = o.uid AND u.uid = ? ORDER BY u.age LIMIT ?, ?",
	"SELECT u.name, x.v FROM t_user u JOIN t_other x ON u.uid = x.uid WHERE u.uid = ? AND x.uid IN (?, ?) ORDER BY x.v LIMIT ?, ?",
	"SELECT u.name, d.v FROM t_user u JOIN t_dict d ON u.age = d.k WHERE u.uid IN (?, ?)",
	"SELECT * FROM t_plain WHERE id = ? LIMIT ?, ?",
	"UPDATE t_dict SET v = ? WHERE k = ?",
	"INSERT INTO t_dict (k, v) VALUES (?, ?), (?, ?)",
	"INSERT INTO t_user (uid, name) VALUES (?, ?)",
	"INSERT INTO t_user (uid, name, age) VALUES (?, ?, ?), (?, ?, - ?), (? + ?, 'lit', 1.5)",
	"INSERT INTO t_user VALUES (?, ?, ?), (?, ?, ?)",
	"SELECT name, age FROM t_user WHERE uid BETWEEN ? AND ? ORDER BY 2 DESC",
	"SELECT age, COUNT(*) FROM t_user WHERE uid BETWEEN ? AND ? GROUP BY 1",
	"SELECT COUNT(*) FROM t_user WHERE uid BETWEEN ? AND ? GROUP BY age % ?",
	"SELECT age % ?, age % ? FROM t_user ORDER BY age % ?",
	"SELECT name FROM t_user ORDER BY uid + ? DESC LIMIT ?, ?",
	"SELECT name FROM t_user WHERE uid = ? ORDER BY age LIMIT ? OFFSET ?",

	"XA BEGIN ?", "XA ADOPT ?", "XA END ?", "XA PREPARE ?", "XA COMMIT ?", "XA ROLLBACK ?",
	"XA START 'gtx-1'", "XA RECOVER",
}

// FuzzNormalize holds Normalize to the parser: the key of a statement that
// parses also parses, binding the key's slots (BindArgs) gives back the
// statement's own AST, and a whole ORDER BY or GROUP BY item the parser
// reads as a position (an integer literal, not negative) is a literal in
// the key too — no "?" stands for it, bare, signed or parenthesized. An
// XA verb is not normalized; its bound form serializes back to itself. A
// key is a fixed point: normalized again it is itself, with each slot
// reading the argument of its own position and the same FOR UPDATE — what
// the kernel's text probe relies on.
func FuzzNormalize(f *testing.F) {
	for _, sql := range normalizeSeeds {
		f.Add(sql)
		f.Add(strings.ReplaceAll(sql, "?", "7"))
	}
	f.Fuzz(func(t *testing.T, sql string) {
		n, ok := Normalize(sql)
		if !ok {
			if stmt, err := Parse(sql); err == nil {
				if xa, ok := stmt.(*XAStmt); ok && xa.Bound {
					if text := NewSerializer(DialectMySQL).Serialize(xa); text != xa.Op.String()+" ?" {
						t.Fatalf("%q serializes to %q", sql, text)
					}
				}
			}
			return
		}
		again, ok := Normalize(n.Key)
		if !ok || again.Key != n.Key || again.ForUpdate != n.ForUpdate || len(again.Args) != len(n.Args) {
			t.Fatalf("%q: its key %q normalizes to %+v", sql, n.Key, again)
		}
		for i, slot := range again.Args {
			if slot.Arg != i {
				t.Fatalf("%q: slot %d of its key %q reads argument %d", sql, i, n.Key, slot.Arg)
			}
		}
		orig, err := Parse(sql)
		if err != nil {
			return // nothing to hold the key to
		}
		keyed, err := Parse(n.Key)
		if err != nil {
			t.Fatalf("key %q of %q does not parse: %v", n.Key, sql, err)
		}
		// The caller's arguments are strings no literal slot can equal.
		var args []sqltypes.Value
		for _, slot := range n.Args {
			if slot.Arg >= 0 {
				args = append(args, sqltypes.NewString(fmt.Sprintf("arg %d", slot.Arg)))
			}
		}
		bound, err := n.BindArgs(args)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := bindAST(keyed, bound), bindAST(orig, args); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q normalized to %q %+v, which binds to\n%#v\nnot\n%#v", sql, n.Key, n.Args, got, want)
		}
		if sel, ok := orig.(*SelectStmt); ok {
			items, keyItems := append([]Expr(nil), sel.GroupBy...), append([]Expr(nil), keyed.(*SelectStmt).GroupBy...)
			for i, o := range sel.OrderBy {
				items, keyItems = append(items, o.Expr), append(keyItems, keyed.(*SelectStmt).OrderBy[i].Expr)
			}
			for i, e := range items {
				lit, isLit := e.(*Literal)
				if _, kept := keyItems[i].(*Literal); isLit && lit.Val.Kind == sqltypes.KindInt && lit.Val.I >= 0 && !kept {
					t.Fatalf("%q: the position %v was lifted into %q", sql, lit.Val, n.Key)
				}
			}
		}
	})
}

// bindAST returns the statement with every placeholder replaced by the
// literal args[p.Index], negated numbers folded as the parser folds them.
func bindAST(stmt Statement, args []sqltypes.Value) Statement {
	var bind func(e Expr) Expr
	bind = func(e Expr) Expr {
		switch t := e.(type) {
		case *Placeholder:
			return &Literal{Val: args[t.Index]}
		case *BinaryExpr:
			t.L, t.R = bind(t.L), bind(t.R)
		case *UnaryExpr:
			t.E = bind(t.E)
			if lit, ok := t.E.(*Literal); ok && t.Op == OpNeg {
				switch lit.Val.Kind {
				case sqltypes.KindInt:
					return &Literal{Val: sqltypes.NewInt(-lit.Val.I)}
				case sqltypes.KindFloat:
					return &Literal{Val: sqltypes.NewFloat(-lit.Val.F)}
				}
			}
		case *InExpr:
			t.E = bind(t.E)
			for i := range t.List {
				t.List[i] = bind(t.List[i])
			}
		case *BetweenExpr:
			t.E, t.Lo, t.Hi = bind(t.E), bind(t.Lo), bind(t.Hi)
		case *LikeExpr:
			t.E, t.Pattern = bind(t.E), bind(t.Pattern)
		case *IsNullExpr:
			t.E = bind(t.E)
		case *FuncExpr:
			for i := range t.Args {
				t.Args[i] = bind(t.Args[i])
			}
		case *CaseExpr:
			t.Operand, t.Else = bind(t.Operand), bind(t.Else)
			for i := range t.Whens {
				t.Whens[i].When, t.Whens[i].Then = bind(t.Whens[i].When), bind(t.Whens[i].Then)
			}
		}
		return e
	}
	switch s := CloneStatement(stmt).(type) {
	case *SelectStmt:
		for i := range s.Items {
			s.Items[i].Expr = bind(s.Items[i].Expr)
		}
		for i := range s.From {
			s.From[i].On = bind(s.From[i].On)
		}
		s.Where, s.Having = bind(s.Where), bind(s.Having)
		for i := range s.GroupBy {
			s.GroupBy[i] = bind(s.GroupBy[i])
		}
		for i := range s.OrderBy {
			s.OrderBy[i].Expr = bind(s.OrderBy[i].Expr)
		}
		if s.Limit != nil {
			s.Limit.Offset, s.Limit.Count = bind(s.Limit.Offset), bind(s.Limit.Count)
		}
		return s
	case *InsertStmt:
		for _, row := range s.Rows {
			for i := range row {
				row[i] = bind(row[i])
			}
		}
		return s
	case *UpdateStmt:
		for i := range s.Set {
			s.Set[i].Value = bind(s.Set[i].Value)
		}
		s.Where = bind(s.Where)
		return s
	case *DeleteStmt:
		s.Where = bind(s.Where)
		return s
	default:
		return s
	}
}

package sqlexec

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
)

// TestStoredRowsDoNotKeepTheStatementText: the lexer hands out string
// literals as slices of the statement's text, so the rows a large INSERT
// stores must hold copies. No stored string, and no string a later read
// returns, lies inside the text's bytes.
func TestStoredRowsDoNotKeepTheStatementText(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t_text (id INT PRIMARY KEY, name VARCHAR(64), tag VARCHAR(16))")
	mustExec(t, s, "CREATE INDEX idx_name ON t_text (name)")
	var b strings.Builder
	b.WriteString("INSERT INTO t_text (id, name, tag) VALUES ")
	for i := range 500 {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, 'name-%03d', 'tag-%d')", i, i, i%7)
	}
	insert := b.String()
	mustExec(t, s, insert)
	update := strings.Clone("UPDATE t_text SET tag = 'updated' WHERE id < 10")
	mustExec(t, s, update)

	inside := func(v sqltypes.Value, texts ...string) bool {
		at := uintptr(unsafe.Pointer(unsafe.StringData(v.S)))
		for _, text := range texts {
			lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
			if at >= lo && at < lo+uintptr(len(text)) {
				return true
			}
		}
		return false
	}
	tbl, err := s.engine.Table("t_text")
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	tbl.Scan(0, func(se storage.ScanEntry) bool {
		rows++
		for _, v := range se.Decode(nil) {
			if v.Kind == sqltypes.KindString && inside(v, insert, update) {
				t.Fatalf("stored value %q is a slice of its statement's text", v.S)
			}
		}
		return true
	})
	if rows != 500 {
		t.Fatalf("stored %d rows, want 500", rows)
	}
	res := mustExec(t, s, "SELECT name, tag FROM t_text WHERE name = 'name-007'")
	if len(res.Rows) != 1 || res.Rows[0][1].S != "updated" {
		t.Fatalf("index read: %v", res.Rows)
	}
	for _, v := range res.Rows[0] {
		if inside(v, insert, update) {
			t.Fatalf("read value %q is a slice of a statement's text", v.S)
		}
	}
}

// TestKeptResultsSurviveArenaReuse: a session decodes stored rows into an
// arena it empties after each statement and reuses, so a result kept from
// an earlier statement must own its values. The arena is grown first, so
// the kept statements and the later ones decode into the same room; each
// kept result is then compared with another session's answer.
func TestKeptResultsSurviveArenaReuse(t *testing.T) {
	s := newTestSession(t)
	seedUsers(t, s)
	mustExec(t, s, "CREATE TABLE t_big (id INT PRIMARY KEY, name VARCHAR(64), age INT)")
	var b strings.Builder
	b.WriteString("INSERT INTO t_big (id, name, age) VALUES ")
	for i := range 300 {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, 'other-%d', %d)", i, i, 1000+i)
	}
	mustExec(t, s, b.String())
	mustExec(t, s, "SELECT * FROM t_big")

	kept := map[string]*Result{}
	for _, sql := range []string{
		"SELECT * FROM t_user",
		"SELECT * FROM t_user WHERE age > 26",
		"SELECT age, COUNT(*), MIN(name), MAX(uid) FROM t_user GROUP BY age ORDER BY age",
		"SELECT a.name, b.name, a.age FROM t_user a JOIN t_user b ON a.age = b.age ORDER BY a.uid, b.uid",
	} {
		kept[sql] = mustExec(t, s, sql)
	}
	mustExec(t, s, "SELECT * FROM t_big")
	mustExec(t, s, "SELECT id, name FROM t_big WHERE age % 2 = 0 ORDER BY id DESC")
	mustExec(t, s, "UPDATE t_big SET age = age + 1 WHERE id < 200")
	mustExec(t, s, "SELECT a.id, b.name FROM t_big a JOIN t_big b ON a.id = b.id")
	other := s.proc.NewSession()
	for sql, res := range kept {
		want := mustExec(t, other, sql)
		if len(want.Rows) == 0 {
			t.Fatalf("%s: no rows", sql)
		}
		if got := fmt.Sprint(res.Rows); got != fmt.Sprint(want.Rows) {
			t.Errorf("%s: the kept result reads %s, want %s", sql, got, want.Rows)
		}
	}
}

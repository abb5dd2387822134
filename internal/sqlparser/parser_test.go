package sqlparser

import (
	"strings"
	"testing"
	"unsafe"

	"shardingsphere/internal/sqltypes"
)

func mustParse(t *testing.T, sql string) Statement {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return stmt
}

func TestParseSimpleSelect(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM t_user").(*SelectStmt)
	if len(stmt.Items) != 1 || !stmt.Items[0].Star {
		t.Fatalf("expected star projection, got %+v", stmt.Items)
	}
	if len(stmt.From) != 1 || stmt.From[0].Name != "t_user" {
		t.Fatalf("expected FROM t_user, got %+v", stmt.From)
	}
}

func TestParseSelectColumnsAndAliases(t *testing.T) {
	stmt := mustParse(t, "SELECT uid, name AS n, u.age a FROM t_user u").(*SelectStmt)
	if len(stmt.Items) != 3 {
		t.Fatalf("want 3 items, got %d", len(stmt.Items))
	}
	if stmt.Items[1].Alias != "n" {
		t.Errorf("want alias n, got %q", stmt.Items[1].Alias)
	}
	if stmt.Items[2].Alias != "a" {
		t.Errorf("want implicit alias a, got %q", stmt.Items[2].Alias)
	}
	col := stmt.Items[2].Expr.(*ColumnRef)
	if col.Table != "u" || col.Name != "age" {
		t.Errorf("want u.age, got %+v", col)
	}
	if stmt.From[0].Alias != "u" {
		t.Errorf("want table alias u, got %q", stmt.From[0].Alias)
	}
}

func TestParseWhereOperators(t *testing.T) {
	tests := []struct {
		sql  string
		want BinOp
	}{
		{"SELECT * FROM t WHERE a = 1", OpEQ},
		{"SELECT * FROM t WHERE a <> 1", OpNE},
		{"SELECT * FROM t WHERE a != 1", OpNE},
		{"SELECT * FROM t WHERE a < 1", OpLT},
		{"SELECT * FROM t WHERE a <= 1", OpLE},
		{"SELECT * FROM t WHERE a > 1", OpGT},
		{"SELECT * FROM t WHERE a >= 1", OpGE},
	}
	for _, tc := range tests {
		stmt := mustParse(t, tc.sql).(*SelectStmt)
		be, ok := stmt.Where.(*BinaryExpr)
		if !ok || be.Op != tc.want {
			t.Errorf("%s: want op %v, got %+v", tc.sql, tc.want, stmt.Where)
		}
	}
}

func TestParseInBetweenLike(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM t WHERE uid IN (1, 2, 3)").(*SelectStmt)
	in := stmt.Where.(*InExpr)
	if len(in.List) != 3 || in.Not {
		t.Fatalf("bad IN parse: %+v", in)
	}

	stmt = mustParse(t, "SELECT * FROM t WHERE uid NOT IN (1)").(*SelectStmt)
	if !stmt.Where.(*InExpr).Not {
		t.Fatal("NOT IN lost")
	}

	stmt = mustParse(t, "SELECT * FROM t WHERE uid BETWEEN 5 AND 10").(*SelectStmt)
	bw := stmt.Where.(*BetweenExpr)
	if bw.Lo.(*Literal).Val.I != 5 || bw.Hi.(*Literal).Val.I != 10 {
		t.Fatalf("bad BETWEEN parse: %+v", bw)
	}

	stmt = mustParse(t, "SELECT * FROM t WHERE name LIKE 'a%'").(*SelectStmt)
	lk := stmt.Where.(*LikeExpr)
	if lk.Pattern.(*Literal).Val.S != "a%" {
		t.Fatalf("bad LIKE parse: %+v", lk)
	}
}

func TestParsePrecedence(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").(*SelectStmt)
	or := stmt.Where.(*BinaryExpr)
	if or.Op != OpOr {
		t.Fatalf("want OR at top, got %v", or.Op)
	}
	and := or.R.(*BinaryExpr)
	if and.Op != OpAnd {
		t.Fatalf("want AND on right, got %v", and.Op)
	}
	// Arithmetic: 1 + 2 * 3 parses as 1 + (2*3).
	stmt = mustParse(t, "SELECT 1 + 2 * 3").(*SelectStmt)
	add := stmt.Items[0].Expr.(*BinaryExpr)
	if add.Op != OpAdd {
		t.Fatalf("want + at top, got %v", add.Op)
	}
	if add.R.(*BinaryExpr).Op != OpMul {
		t.Fatalf("want * nested")
	}
}

func TestParseJoin(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM t_user u JOIN t_order o ON u.uid = o.uid WHERE u.uid IN (1, 2)").(*SelectStmt)
	if len(stmt.From) != 2 {
		t.Fatalf("want 2 tables, got %d", len(stmt.From))
	}
	if stmt.From[1].Join != JoinInner || stmt.From[1].On == nil {
		t.Fatalf("bad join: %+v", stmt.From[1])
	}
	stmt = mustParse(t, "SELECT * FROM a LEFT JOIN b ON a.x = b.x").(*SelectStmt)
	if stmt.From[1].Join != JoinLeft {
		t.Fatalf("want LEFT JOIN, got %v", stmt.From[1].Join)
	}
	stmt = mustParse(t, "SELECT * FROM a, b WHERE a.x = b.x").(*SelectStmt)
	if stmt.From[1].Join != JoinCross {
		t.Fatalf("comma join should be cross, got %v", stmt.From[1].Join)
	}
}

func TestParseGroupOrderLimit(t *testing.T) {
	stmt := mustParse(t, "SELECT name, SUM(score) FROM t_score GROUP BY name HAVING SUM(score) > 10 ORDER BY name DESC LIMIT 10").(*SelectStmt)
	if len(stmt.GroupBy) != 1 || stmt.Having == nil {
		t.Fatalf("bad group/having: %+v", stmt)
	}
	if !stmt.OrderBy[0].Desc {
		t.Fatal("DESC lost")
	}
	if stmt.Limit == nil || stmt.Limit.Count.(*Literal).Val.I != 10 {
		t.Fatalf("bad limit: %+v", stmt.Limit)
	}
}

func TestParseLimitDialects(t *testing.T) {
	// MySQL form: LIMIT offset, count
	stmt := mustParse(t, "SELECT * FROM t LIMIT 20, 10").(*SelectStmt)
	if stmt.Limit.Offset.(*Literal).Val.I != 20 || stmt.Limit.Count.(*Literal).Val.I != 10 {
		t.Fatalf("bad mysql limit: %+v", stmt.Limit)
	}
	// PostgreSQL form: LIMIT count OFFSET offset
	stmt = mustParse(t, "SELECT * FROM t LIMIT 10 OFFSET 20").(*SelectStmt)
	if stmt.Limit.Offset.(*Literal).Val.I != 20 || stmt.Limit.Count.(*Literal).Val.I != 10 {
		t.Fatalf("bad pg limit: %+v", stmt.Limit)
	}
}

func TestParseAggregates(t *testing.T) {
	stmt := mustParse(t, "SELECT COUNT(*), SUM(x), AVG(x), MIN(x), MAX(x), COUNT(DISTINCT x) FROM t").(*SelectStmt)
	if len(stmt.Items) != 6 {
		t.Fatalf("want 6 items, got %d", len(stmt.Items))
	}
	if !stmt.Items[0].Expr.(*FuncExpr).Star {
		t.Fatal("COUNT(*) star lost")
	}
	if !stmt.Items[5].Expr.(*FuncExpr).Distinct {
		t.Fatal("DISTINCT lost")
	}
	for i, item := range stmt.Items {
		if f, ok := item.Expr.(*FuncExpr); !ok || !f.IsAggregate() {
			t.Fatalf("item %d is not an aggregate call: %#v", i, item.Expr)
		}
	}
}

func TestParseInsert(t *testing.T) {
	stmt := mustParse(t, "INSERT INTO t_order (oid, uid, note) VALUES (1, 2, 'a'), (3, 4, 'b')").(*InsertStmt)
	if stmt.Table != "t_order" || len(stmt.Columns) != 3 || len(stmt.Rows) != 2 {
		t.Fatalf("bad insert: %+v", stmt)
	}
	if stmt.Rows[1][2].(*Literal).Val.S != "b" {
		t.Fatalf("bad row value")
	}
}

func TestParseUpdateDelete(t *testing.T) {
	up := mustParse(t, "UPDATE t_user SET name = 'x', age = age + 1 WHERE uid = 7").(*UpdateStmt)
	if len(up.Set) != 2 || up.Where == nil {
		t.Fatalf("bad update: %+v", up)
	}
	del := mustParse(t, "DELETE FROM t_user WHERE uid = 7").(*DeleteStmt)
	if del.Table != "t_user" || del.Where == nil {
		t.Fatalf("bad delete: %+v", del)
	}
}

func TestParseCreateTable(t *testing.T) {
	stmt := mustParse(t, `CREATE TABLE IF NOT EXISTS sbtest1 (
		id INT PRIMARY KEY AUTO_INCREMENT,
		k INT NOT NULL,
		c VARCHAR(120),
		pad CHAR(60)
	)`).(*CreateTableStmt)
	if !stmt.IfNotExists || len(stmt.Columns) != 4 {
		t.Fatalf("bad create: %+v", stmt)
	}
	if !stmt.Columns[0].PrimaryKey || !stmt.Columns[0].AutoIncrement {
		t.Fatalf("pk flags lost: %+v", stmt.Columns[0])
	}
	if stmt.Columns[2].Size != 120 {
		t.Fatalf("varchar size lost: %+v", stmt.Columns[2])
	}
	if stmt.Columns[1].Type != sqltypes.KindInt {
		t.Fatalf("int type lost")
	}
}

func TestParseCreateTableTablePK(t *testing.T) {
	stmt := mustParse(t, "CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b))").(*CreateTableStmt)
	if len(stmt.PrimaryKey) != 2 {
		t.Fatalf("table-level pk lost: %+v", stmt)
	}
}

func TestParseTCL(t *testing.T) {
	if _, ok := mustParse(t, "BEGIN").(*BeginStmt); !ok {
		t.Fatal("BEGIN")
	}
	if _, ok := mustParse(t, "START TRANSACTION").(*BeginStmt); !ok {
		t.Fatal("START TRANSACTION")
	}
	if _, ok := mustParse(t, "COMMIT").(*CommitStmt); !ok {
		t.Fatal("COMMIT")
	}
	if rb, ok := mustParse(t, "ROLLBACK").(*RollbackStmt); !ok || rb.Savepoint != "" {
		t.Fatal("ROLLBACK")
	}
	// Both dialects spell a savepoint alike; SAVEPOINT and TO stay usable
	// as names.
	if sp, ok := mustParse(t, "savepoint s1").(*SavepointStmt); !ok || sp.Name != "s1" {
		t.Fatalf("SAVEPOINT: %+v", sp)
	}
	for _, sql := range []string{"ROLLBACK TO SAVEPOINT s1", "rollback to s1"} {
		if rb, ok := mustParse(t, sql).(*RollbackStmt); !ok || rb.Savepoint != "s1" {
			t.Fatalf("%s: %+v", sql, rb)
		}
	}
	if _, err := Parse("ROLLBACK TO"); err == nil {
		t.Fatal("ROLLBACK TO without a name parsed")
	}
	if _, ok := mustParse(t, "SELECT savepoint, to FROM t").(*SelectStmt); !ok {
		t.Fatal("SAVEPOINT and TO as column names")
	}
}

func TestParseXA(t *testing.T) {
	stmt := mustParse(t, "XA PREPARE 'gtx-1'").(*XAStmt)
	if stmt.Op != XAPrepare || stmt.XID != "gtx-1" {
		t.Fatalf("bad xa: %+v", stmt)
	}
	stmt = mustParse(t, "XA RECOVER").(*XAStmt)
	if stmt.Op != XARecover {
		t.Fatalf("bad xa recover: %+v", stmt)
	}
	// The bound form is one text per verb; it serializes back to itself.
	ser := NewSerializer(DialectMySQL)
	for _, sql := range []string{"XA BEGIN ?", "XA ADOPT ?", "XA END ?", "XA PREPARE ?", "XA COMMIT ?", "XA ROLLBACK ?"} {
		stmt := mustParse(t, sql).(*XAStmt)
		if !stmt.Bound || stmt.XID != "" {
			t.Fatalf("%s: %+v", sql, stmt)
		}
		if text := ser.Serialize(stmt); text != sql {
			t.Fatalf("%s serializes to %q", sql, text)
		}
	}
	var pe *ParseError
	if _, err := Parse("XA RECOVER ?"); !asParseError(err, &pe) {
		t.Fatalf("XA RECOVER ?: want a ParseError, got %v", err)
	}
}

func TestParsePlaceholders(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM t WHERE a = ? AND b IN (?, ?)").(*SelectStmt)
	var idxs []int
	WalkExpr(stmt.Where, func(e Expr) bool {
		if p, ok := e.(*Placeholder); ok {
			idxs = append(idxs, p.Index)
		}
		return true
	})
	if len(idxs) != 3 || idxs[0] != 0 || idxs[1] != 1 || idxs[2] != 2 {
		t.Fatalf("placeholder numbering: %v", idxs)
	}
}

func TestParseQuotedIdentifiers(t *testing.T) {
	stmt := mustParse(t, "SELECT `select` FROM `t_user` WHERE \"key\" = 1").(*SelectStmt)
	if stmt.From[0].Name != "t_user" {
		t.Fatalf("backtick ident: %+v", stmt.From[0])
	}
	if stmt.Items[0].Expr.(*ColumnRef).Name != "select" {
		t.Fatalf("quoted keyword ident lost")
	}
}

func TestParseComments(t *testing.T) {
	stmt := mustParse(t, "SELECT * -- line comment\nFROM /* block */ t").(*SelectStmt)
	if stmt.From[0].Name != "t" {
		t.Fatal("comments broke parse")
	}
}

func TestParseStringEscapes(t *testing.T) {
	stmt := mustParse(t, `SELECT 'it''s', 'a\'b' FROM t`).(*SelectStmt)
	if stmt.Items[0].Expr.(*Literal).Val.S != "it's" {
		t.Fatalf("doubled quote: %q", stmt.Items[0].Expr.(*Literal).Val.S)
	}
	if stmt.Items[1].Expr.(*Literal).Val.S != "a'b" {
		t.Fatalf("backslash quote: %q", stmt.Items[1].Expr.(*Literal).Val.S)
	}
}

func TestParseCase(t *testing.T) {
	stmt := mustParse(t, "SELECT CASE WHEN a > 0 THEN 'pos' ELSE 'neg' END FROM t").(*SelectStmt)
	c := stmt.Items[0].Expr.(*CaseExpr)
	if len(c.Whens) != 1 || c.Else == nil || c.Operand != nil {
		t.Fatalf("bad case: %+v", c)
	}
	stmt = mustParse(t, "SELECT CASE a WHEN 1 THEN 'one' END FROM t").(*SelectStmt)
	if stmt.Items[0].Expr.(*CaseExpr).Operand == nil {
		t.Fatal("operand case lost")
	}
}

func TestParseSet(t *testing.T) {
	stmt := mustParse(t, "SET VARIABLE transaction_type = 'XA'").(*SetStmt)
	if stmt.Name != "transaction_type" || stmt.Value.S != "XA" {
		t.Fatalf("bad set: %+v", stmt)
	}
	stmt = mustParse(t, "SET autocommit = 0").(*SetStmt)
	if stmt.Value.I != 0 {
		t.Fatalf("bad set int: %+v", stmt)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC * FROM t",
		"SELECT FROM",
		"SELECT * FROM t WHERE",
		"INSERT INTO t VALUES",
		"SELECT * FROM t WHERE a NOT = 1",
		"SELECT * FROM t LIMIT",
		"CREATE TABLE t (a BADTYPE)",
		"SELECT 'unterminated FROM t",
		"XA PREPARE",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := Parse("SELECT * FROM t WHERE @")
	if err == nil {
		t.Fatal("want error")
	}
	var pe *ParseError
	if !asParseError(err, &pe) {
		t.Fatalf("want *ParseError, got %T", err)
	}
	if pe.Pos <= 0 || !strings.Contains(pe.Error(), "offset") {
		t.Fatalf("bad error: %v", pe)
	}
}

func asParseError(err error, target **ParseError) bool {
	pe, ok := err.(*ParseError)
	if ok {
		*target = pe
	}
	return ok
}

func TestParseForUpdate(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM t WHERE id = 1 FOR UPDATE").(*SelectStmt)
	if !stmt.ForUpdate {
		t.Fatal("FOR UPDATE lost")
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	mustParse(t, "SELECT 1;")
	mustParse(t, "COMMIT;")
}

func TestParseStarQualified(t *testing.T) {
	stmt := mustParse(t, "SELECT u.*, o.oid FROM t_user u JOIN t_order o ON u.uid = o.uid").(*SelectStmt)
	if !stmt.Items[0].Star || stmt.Items[0].StarTable != "u" {
		t.Fatalf("qualified star lost: %+v", stmt.Items[0])
	}
}

func TestRoundTripSerialization(t *testing.T) {
	queries := []string{
		"SELECT * FROM t_user",
		"SELECT DISTINCT uid FROM t_user WHERE age > 18 ORDER BY uid DESC LIMIT 5, 10",
		"SELECT name, SUM(score) AS total FROM t_score GROUP BY name HAVING SUM(score) > 10 ORDER BY name",
		"SELECT * FROM t_user u JOIN t_order o ON u.uid = o.uid WHERE u.uid IN (1, 2)",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')",
		"UPDATE t SET a = a + 1 WHERE b BETWEEN 1 AND 3",
		"DELETE FROM t WHERE a IS NOT NULL",
		"SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3",
		"SELECT CASE WHEN a > 0 THEN 1 ELSE 0 END FROM t",
		"XA COMMIT 'x1'",
	}
	ser := NewSerializer(DialectMySQL)
	for _, q := range queries {
		stmt1 := mustParse(t, q)
		text := ser.Serialize(stmt1)
		stmt2, err := Parse(text)
		if err != nil {
			t.Fatalf("reparse of %q (from %q): %v", text, q, err)
		}
		text2 := ser.Serialize(stmt2)
		if text != text2 {
			t.Errorf("not a fixpoint:\n 1: %s\n 2: %s", text, text2)
		}
	}
}

func TestSerializeDialectLimit(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM t LIMIT 20, 10")
	my := NewSerializer(DialectMySQL).Serialize(stmt)
	pg := NewSerializer(DialectPostgreSQL).Serialize(stmt)
	if !strings.Contains(my, "LIMIT 20, 10") {
		t.Errorf("mysql limit: %s", my)
	}
	if !strings.Contains(pg, "LIMIT 10 OFFSET 20") {
		t.Errorf("pg limit: %s", pg)
	}
}

func TestSerializeQuotesReservedIdents(t *testing.T) {
	stmt := &SelectStmt{
		Items: []SelectItem{{Expr: &ColumnRef{Name: "key"}}},
		From:  []TableRef{{Name: "order"}},
	}
	my := NewSerializer(DialectMySQL).Serialize(stmt)
	if !strings.Contains(my, "`key`") || !strings.Contains(my, "`order`") {
		t.Errorf("mysql quoting: %s", my)
	}
	pg := NewSerializer(DialectPostgreSQL).Serialize(stmt)
	if !strings.Contains(pg, `"key"`) {
		t.Errorf("pg quoting: %s", pg)
	}
}

func TestCloneStatementIsDeep(t *testing.T) {
	stmt := mustParse(t, "SELECT a FROM t WHERE b = 1").(*SelectStmt)
	c := CloneStatement(stmt).(*SelectStmt)
	c.From[0].Name = "t_actual_0"
	c.Where.(*BinaryExpr).L.(*ColumnRef).Name = "zzz"
	if stmt.From[0].Name != "t" {
		t.Fatal("clone shares From")
	}
	if stmt.Where.(*BinaryExpr).L.(*ColumnRef).Name != "b" {
		t.Fatal("clone shares Where")
	}
}

func TestTableNames(t *testing.T) {
	if got := TableNames(mustParse(t, "SELECT * FROM a, b")); len(got) != 2 {
		t.Fatalf("TableNames select: %v", got)
	}
	if got := TableNames(mustParse(t, "INSERT INTO x VALUES (1)")); len(got) != 1 || got[0] != "x" {
		t.Fatalf("TableNames insert: %v", got)
	}
	if got := TableNames(mustParse(t, "COMMIT")); got != nil {
		t.Fatalf("TableNames commit: %v", got)
	}
}

func TestStatementTypes(t *testing.T) {
	cases := map[string]StatementType{
		"SELECT 1":                 StmtSelect,
		"INSERT INTO t VALUES (1)": StmtInsert,
		"UPDATE t SET a = 1":       StmtUpdate,
		"DELETE FROM t":            StmtDelete,
		"CREATE TABLE t (a INT)":   StmtDDL,
		"DROP TABLE t":             StmtDDL,
		"TRUNCATE TABLE t":         StmtDDL,
		"BEGIN":                    StmtTCL,
		"XA RECOVER":               StmtXA,
		"SHOW TABLES":              StmtShow,
		"SET autocommit = 1":       StmtSet,
	}
	for sql, want := range cases {
		if got := mustParse(t, sql).StatementType(); got != want {
			t.Errorf("%q: want %v, got %v", sql, want, got)
		}
	}
	if !StmtInsert.IsDML() || StmtSelect.IsDML() {
		t.Error("IsDML misclassifies")
	}
}

// TestParserNeverPanics feeds mutated and truncated inputs; every outcome
// must be a clean error or a statement, never a panic.
func TestParserNeverPanics(t *testing.T) {
	seeds := []string{
		"SELECT a, b FROM t WHERE a = 1 AND b IN (2, 3) ORDER BY a LIMIT 5, 10",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')",
		"UPDATE t SET a = a + 1 WHERE b BETWEEN 1 AND 3",
		"CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(10))",
		"SELECT COUNT(*), AVG(x) FROM t GROUP BY y HAVING SUM(x) > 1",
		"XA PREPARE 'x-1'",
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("parser panicked: %v", r)
		}
	}()
	// Truncations.
	for _, seed := range seeds {
		for cut := 0; cut <= len(seed); cut++ {
			Parse(seed[:cut])
		}
	}
	// Deterministic mutations: flip each byte through a set of hostile
	// characters.
	hostile := []byte{'\'', '"', '`', '(', ')', ',', '?', '%', 0, 0xff}
	for _, seed := range seeds {
		b := []byte(seed)
		for i := 0; i < len(b); i += 3 {
			for _, h := range hostile {
				old := b[i]
				b[i] = h
				Parse(string(b))
				b[i] = old
			}
		}
	}
}

func TestParseMoreSyntax(t *testing.T) {
	// Explicit CROSS JOIN.
	stmt := mustParse(t, "SELECT * FROM a CROSS JOIN b").(*SelectStmt)
	if stmt.From[1].Join != JoinCross || stmt.From[1].On != nil {
		t.Fatalf("cross join: %+v", stmt.From[1])
	}
	// RIGHT OUTER JOIN.
	stmt = mustParse(t, "SELECT * FROM a RIGHT OUTER JOIN b ON a.x = b.x").(*SelectStmt)
	if stmt.From[1].Join != JoinRight {
		t.Fatalf("right outer: %v", stmt.From[1].Join)
	}
	// Scientific notation and negative literals.
	stmt = mustParse(t, "SELECT -1.5e3, 2E2, -7").(*SelectStmt)
	if stmt.Items[0].Expr.(*Literal).Val.F != -1500 {
		t.Fatalf("exponent: %v", stmt.Items[0].Expr)
	}
	if stmt.Items[2].Expr.(*Literal).Val.I != -7 {
		t.Fatalf("negative fold: %v", stmt.Items[2].Expr)
	}
	// String concatenation operator.
	stmt = mustParse(t, "SELECT a || 'x' FROM t").(*SelectStmt)
	if stmt.Items[0].Expr.(*BinaryExpr).Op != OpConcat {
		t.Fatal("|| lost")
	}
	// DECIMAL(p, s) column type.
	ct := mustParse(t, "CREATE TABLE t (a DECIMAL(10, 2) PRIMARY KEY)").(*CreateTableStmt)
	if ct.Columns[0].Size != 10 {
		t.Fatalf("decimal size: %+v", ct.Columns[0])
	}
	// DESCRIBE.
	d := mustParse(t, "DESCRIBE t_user").(*DescribeStmt)
	if d.Table != "t_user" {
		t.Fatalf("describe: %+v", d)
	}
	// Unary NOT and arithmetic unary minus over a column.
	stmt = mustParse(t, "SELECT -a FROM t WHERE NOT a = 1").(*SelectStmt)
	if _, ok := stmt.Items[0].Expr.(*UnaryExpr); !ok {
		t.Fatal("unary minus lost")
	}
	if _, ok := stmt.Where.(*UnaryExpr); !ok {
		t.Fatal("NOT lost")
	}
}

func TestSerializeAllStatementKinds(t *testing.T) {
	// Round-trip each statement type under both dialects to exercise the
	// serializer's branches.
	statements := []string{
		"SELECT u.*, COUNT(*) AS c FROM t_user u LEFT JOIN t_o o ON u.id = o.id WHERE u.x IS NOT NULL AND u.y NOT IN (1, 2) GROUP BY u.z HAVING COUNT(*) > 1 ORDER BY c DESC LIMIT 3 OFFSET 6 FOR UPDATE",
		"SELECT CASE a WHEN 1 THEN 'x' ELSE 'y' END, a NOT BETWEEN 1 AND 2, b NOT LIKE 'z%' FROM t",
		"INSERT INTO t VALUES (NULL, TRUE, FALSE, -2.5)",
		"UPDATE t x SET a = a % 2 WHERE b || 'q' = 'vq'",
		"DELETE FROM t WHERE a IS NULL",
		"CREATE TABLE IF NOT EXISTS t (a INT PRIMARY KEY AUTO_INCREMENT, b VARCHAR(10) NOT NULL, PRIMARY KEY (a))",
		"DROP TABLE IF EXISTS t",
		"TRUNCATE TABLE t",
		"CREATE INDEX i ON t (a, b)",
		"BEGIN", "COMMIT", "ROLLBACK", "SAVEPOINT s", "ROLLBACK TO SAVEPOINT s",
		"XA BEGIN 'g'", "XA END 'g'", "XA PREPARE 'g'", "XA COMMIT 'g'", "XA ROLLBACK 'g'", "XA RECOVER",
		"XA BEGIN ?", "XA ADOPT ?", "XA COMMIT ?",
		"SHOW TABLES",
		"DESCRIBE t",
		"SET autocommit = 1",
	}
	for _, d := range []Dialect{DialectMySQL, DialectPostgreSQL} {
		ser := NewSerializer(d)
		for _, sql := range statements {
			stmt, err := Parse(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			text := ser.Serialize(stmt)
			if _, err := Parse(text); err != nil {
				t.Fatalf("reparse %q (from %q, %v): %v", text, sql, d, err)
			}
		}
	}
}

func TestDialectNames(t *testing.T) {
	if DialectMySQL.String() != "MySQL" || DialectPostgreSQL.String() != "PostgreSQL" {
		t.Fatal("dialect names")
	}
}

func TestWalkExprPrunes(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM t WHERE a = 1 AND b = 2").(*SelectStmt)
	visits := 0
	WalkExpr(stmt.Where, func(e Expr) bool {
		visits++
		_, isBin := e.(*BinaryExpr)
		return !isBin || visits == 1 // prune below the two comparisons
	})
	if visits != 3 { // AND + its two children, pruned there
		t.Fatalf("visits: %d", visits)
	}
}

// TestIsKeyword: the serializer's allocation-free reserved-word check
// agrees with the keyword set in any case, and its stack buffer fits the
// longest keyword.
func TestIsKeyword(t *testing.T) {
	for _, kw := range keywordList {
		if len(kw) > maxKeywordLen {
			t.Errorf("keyword %q is longer than maxKeywordLen (%d)", kw, maxKeywordLen)
		}
		if !isKeyword(kw) || !isKeyword(strings.ToLower(kw)) {
			t.Errorf("isKeyword(%q) = false", kw)
		}
	}
	for _, ident := range []string{"sbtest_7", "selec", "selects", "a_very_long_identifier_indeed", ""} {
		if isKeyword(ident) {
			t.Errorf("isKeyword(%q) = true", ident)
		}
	}
	for ident, want := range map[string]string{
		"sbtest_7": "sbtest_7", "select": "`select`", "Auto_Increment": "`Auto_Increment`",
		"7up": "`7up`", "a b": "`a b`", "": "``", "order_1": "order_1", "_x$": "_x$",
	} {
		if got := QuoteIdent(DialectMySQL, ident); got != want {
			t.Errorf("QuoteIdent(%q) = %s, want %s", ident, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { QuoteIdent(DialectMySQL, "sbtest_42"); isKeyword("sbtest") }); n != 0 {
		t.Errorf("quoting a bare identifier allocates %v times", n)
	}
}

// TestKeywordMatchesMap: the bucketed lookup answers as a map of the
// reserved words did, probed by ident upper-cased in ASCII: on every
// keyword in lower, upper and mixed case, on each one's proper prefixes and
// one-letter extensions, on words led by '_', by a digit or by a non-ASCII
// byte, on letters Unicode folds to ASCII ones, and on words longer than
// any keyword.
func TestKeywordMatchesMap(t *testing.T) {
	words := map[string]string{}
	for _, w := range keywordList {
		words[w] = w
	}
	probes := []string{"", "_", "_select", "_AND", "1", "1select", "7up", "sélect", "\xc1ND", "@ND", "[ND",
		"éND", "\xe1nd", "uſe", "li\u212ae", "\u212aey", "ſum", "tableſ",
		strings.Repeat("a", maxKeywordLen+1), "auto_incrementx", "AUTO_INCREMENT_", strings.Repeat("SELECT", 8)}
	for _, kw := range keywordList {
		lower := strings.ToLower(kw)
		mixed := []byte(lower)
		for i := 0; i < len(mixed); i += 2 {
			mixed[i] = kw[i]
		}
		probes = append(probes, kw, lower, string(mixed), "_"+kw, "9"+lower)
		for i := 1; i < len(kw); i++ {
			probes = append(probes, kw[:i], lower[:i])
		}
		for _, c := range []string{"a", "S", "_", "0", "$", "é"} {
			probes = append(probes, kw+c, lower+c, c+kw)
		}
	}
	for _, p := range probes {
		if got, want := keyword(p), words[upper(p)]; got != want {
			t.Errorf("keyword(%q) = %q, want %q", p, got, want)
		}
	}
}

// TestLexerAllocations: keywords in any case, identifiers, operators,
// integers, placeholders and string literals without escapes lex without
// allocating; such a literal is a slice of its statement's text (storage
// copies what it keeps). A literal with an escape is one allocation.
func TestLexerAllocations(t *testing.T) {
	lex := func(src string) Token {
		l := lexer{src: src}
		first := Token{Type: TokenEOF}
		for {
			tok, err := l.next()
			if err != nil {
				t.Fatal(err)
			}
			if tok.Type == TokenEOF {
				return first
			}
			if first.Type == TokenEOF {
				first = tok
			}
		}
	}
	const stmt = "select c, K FROM sbtest WHERE id BETWEEN ? and ? AND (k <> 42 OR pad != ?) order by c desc LIMIT 10;"
	if n := testing.AllocsPerRun(100, func() { lex(stmt) }); n != 0 {
		t.Errorf("lexing %q allocates %v times", stmt, n)
	}
	const literal = "'a string literal'"
	if n := testing.AllocsPerRun(100, func() { lex(literal) }); n != 0 {
		t.Errorf("lexing a string literal allocates %v times, want 0", n)
	}
	val := lex(literal).Val
	src := uintptr(unsafe.Pointer(unsafe.StringData(literal)))
	if at := uintptr(unsafe.Pointer(unsafe.StringData(val))); val != "a string literal" || at != src+1 {
		t.Errorf("the literal %q is not a slice of its statement's text", val)
	}
	for _, escaped := range []string{`'it''s'`, `'it\'s'`, `'a\tb'`} {
		if n := testing.AllocsPerRun(100, func() { lex(escaped) }); n != 1 {
			t.Errorf("lexing %s allocates %v times, want 1", escaped, n)
		}
	}
}

package sqlparser

import (
	"fmt"
	"slices"
	"strings"
)

// Serializer renders AST nodes back to SQL text for a target dialect. The
// SQL rewriter (paper Section VI-C) derives columns and revises pagination
// on a copy of the AST, and a Serializer writes the statements sent to
// data nodes with holes where their actual table names go (SerializeCut).
type Serializer struct {
	Dialect Dialect
	reads   *[]int   // SerializeCut: each "?" written appends its Placeholder.Index
	tables  []string // SerializeCut: the tables written as holes
	holes   *[]Hole
}

// Hole is where SerializeCut left a table's name out of a text: at byte
// At, for the table at index Table of its list.
type Hole struct{ At, Table int }

// NewSerializer returns a serializer for the dialect.
func NewSerializer(d Dialect) *Serializer { return &Serializer{Dialect: d} }

func (s *Serializer) quote(ident string) string {
	if !needsQuote(ident) {
		return ident
	}
	if s.Dialect == DialectPostgreSQL {
		return `"` + strings.ReplaceAll(ident, `"`, `""`) + `"`
	}
	return "`" + strings.ReplaceAll(ident, "`", "``") + "`"
}

// QuoteIdent renders an identifier for the dialect, quoting only when
// required — the same rules the Serializer applies. The rewrite template
// uses it to splice actual table names into pre-serialized SQL.
func QuoteIdent(d Dialect, ident string) string {
	return (&Serializer{Dialect: d}).quote(ident)
}

func needsQuote(ident string) bool {
	if ident == "" || !isIdentStart(ident[0]) {
		return true
	}
	// Reserved words are letters and underscores only, so a name with a
	// digit in it (every shard table) skips the keyword lookup.
	wordLike := true
	for i := 0; i < len(ident); i++ {
		c := ident[i]
		if !isIdentPart(c) {
			return true
		}
		if !(c == '_' || (c|0x20 >= 'a' && c|0x20 <= 'z')) {
			wordLike = false
		}
	}
	return wordLike && isKeyword(ident)
}

// Serialize renders a statement to SQL text.
func (s *Serializer) Serialize(stmt Statement) string {
	var b strings.Builder
	s.writeStmt(&b, stmt)
	return b.String()
}

// SerializeReads renders a statement and the Placeholder.Index of each "?"
// in text order: a text binds positionally, so it is sent with the
// statement's arguments in that order, whatever a dialect reordered (LIMIT
// count OFFSET offset) or a rewrite duplicated.
func (s *Serializer) SerializeReads(stmt Statement) (string, []int) {
	text, _, reads := s.SerializeCut(stmt, nil)
	return text, reads
}

// SerializeCut is SerializeReads, except that wherever it would name one
// of tables — a FROM or JOIN table, a column qualifier, a star's table, a
// DML or DDL target — it writes nothing and records a Hole. A name is its
// exact spelling's index in tables, else the first differing from it only
// in case, as a data node matches a qualifier. The statement is only read.
func (s *Serializer) SerializeCut(stmt Statement, tables []string) (string, []Hole, []int) {
	var holes []Hole
	var reads []int
	c := *s
	c.reads, c.tables, c.holes = &reads, tables, &holes
	var b strings.Builder
	b.Grow(64) // most statements fit: one allocation instead of four doublings
	c.writeStmt(&b, stmt)
	return b.String(), holes, reads
}

// table writes a table's name, or leaves a hole for a table SerializeCut
// lists.
func (s *Serializer) table(b *strings.Builder, name string) {
	i := slices.Index(s.tables, name)
	if i < 0 {
		i = slices.IndexFunc(s.tables, func(t string) bool { return strings.EqualFold(t, name) })
	}
	if i < 0 {
		b.WriteString(s.quote(name))
		return
	}
	*s.holes = append(*s.holes, Hole{At: b.Len(), Table: i})
}

// SerializeExpr renders one expression to SQL text.
func (s *Serializer) SerializeExpr(e Expr) string {
	var b strings.Builder
	s.writeExpr(&b, e)
	return b.String()
}

func (s *Serializer) writeStmt(b *strings.Builder, stmt Statement) {
	switch t := stmt.(type) {
	case *SelectStmt:
		s.writeSelect(b, t)
	case *InsertStmt:
		s.writeInsert(b, t)
	case *UpdateStmt:
		s.writeUpdate(b, t)
	case *DeleteStmt:
		s.writeDelete(b, t)
	case *CreateTableStmt:
		s.writeCreateTable(b, t)
	case *DropTableStmt:
		b.WriteString("DROP TABLE ")
		if t.IfExists {
			b.WriteString("IF EXISTS ")
		}
		s.table(b, t.Table)
	case *TruncateStmt:
		b.WriteString("TRUNCATE TABLE ")
		s.table(b, t.Table)
	case *CreateIndexStmt:
		fmt.Fprintf(b, "CREATE INDEX %s ON ", s.quote(t.Name))
		s.table(b, t.Table)
		fmt.Fprintf(b, " (%s)", s.identList(t.Columns))
	case *BeginStmt:
		b.WriteString("BEGIN")
	case *CommitStmt:
		b.WriteString("COMMIT")
	case *RollbackStmt:
		b.WriteString("ROLLBACK")
		if t.Savepoint != "" {
			b.WriteString(" TO SAVEPOINT ")
			b.WriteString(s.quote(t.Savepoint))
		}
	case *SavepointStmt:
		b.WriteString("SAVEPOINT ")
		b.WriteString(s.quote(t.Name))
	case *XAStmt:
		b.WriteString(t.Op.String())
		if t.Bound {
			b.WriteString(" ?")
		} else if t.Op != XARecover {
			b.WriteString(" '")
			b.WriteString(strings.ReplaceAll(t.XID, "'", "''"))
			b.WriteString("'")
		}
	case *ShowStmt:
		b.WriteString("SHOW ")
		b.WriteString(t.What)
	case *DescribeStmt:
		b.WriteString("DESCRIBE ")
		s.table(b, t.Table)
	case *SetStmt:
		fmt.Fprintf(b, "SET %s = %s", t.Name, t.Value.SQLLiteral())
	default:
		fmt.Fprintf(b, "/* unserializable %T */", stmt)
	}
}

func (s *Serializer) identList(cols []string) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = s.quote(c)
	}
	return strings.Join(parts, ", ")
}

func (s *Serializer) writeSelect(b *strings.Builder, t *SelectStmt) {
	b.WriteString("SELECT ")
	if t.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, item := range t.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case item.Star && item.StarTable != "":
			s.table(b, item.StarTable)
			b.WriteString(".*")
		case item.Star:
			b.WriteString("*")
		default:
			s.writeExpr(b, item.Expr)
			if item.Alias != "" {
				b.WriteString(" AS ")
				b.WriteString(s.quote(item.Alias))
			}
		}
	}
	if len(t.From) > 0 {
		b.WriteString(" FROM ")
		for i, ref := range t.From {
			if i > 0 {
				if ref.Join == JoinCross && ref.On == nil {
					b.WriteString(", ")
				} else {
					b.WriteString(" ")
					b.WriteString(ref.Join.String())
					b.WriteString(" ")
				}
			}
			s.table(b, ref.Name)
			if ref.Alias != "" {
				b.WriteString(" ")
				b.WriteString(s.quote(ref.Alias))
			}
			if ref.On != nil {
				b.WriteString(" ON ")
				s.writeExpr(b, ref.On)
			}
		}
	}
	if t.Where != nil {
		b.WriteString(" WHERE ")
		s.writeExpr(b, t.Where)
	}
	if len(t.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, e := range t.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			s.writeExpr(b, e)
		}
	}
	if t.Having != nil {
		b.WriteString(" HAVING ")
		s.writeExpr(b, t.Having)
	}
	if len(t.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range t.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			s.writeExpr(b, o.Expr)
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if t.Limit != nil {
		b.WriteString(" LIMIT ")
		s.writeLimit(b, t.Limit)
	}
	if t.ForUpdate {
		b.WriteString(" FOR UPDATE")
	}
}

func (s *Serializer) writeLimit(b *strings.Builder, l *Limit) {
	if s.Dialect == DialectPostgreSQL {
		s.writeExpr(b, l.Count)
		if l.Offset != nil {
			b.WriteString(" OFFSET ")
			s.writeExpr(b, l.Offset)
		}
		return
	}
	if l.Offset != nil {
		s.writeExpr(b, l.Offset)
		b.WriteString(", ")
	}
	s.writeExpr(b, l.Count)
}

func (s *Serializer) writeInsert(b *strings.Builder, t *InsertStmt) {
	b.WriteString("INSERT INTO ")
	s.table(b, t.Table)
	if len(t.Columns) > 0 {
		b.WriteString(" (")
		b.WriteString(s.identList(t.Columns))
		b.WriteString(")")
	}
	b.WriteString(" VALUES ")
	// Values name no table: a row is written as it is, as in the split
	// form the rewriter writes row by row.
	rows := *s
	rows.tables = nil
	for i, row := range t.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(")
		for j, e := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			rows.writeExpr(b, e)
		}
		b.WriteString(")")
	}
}

func (s *Serializer) writeUpdate(b *strings.Builder, t *UpdateStmt) {
	b.WriteString("UPDATE ")
	s.table(b, t.Table)
	if t.Alias != "" {
		b.WriteString(" ")
		b.WriteString(s.quote(t.Alias))
	}
	b.WriteString(" SET ")
	for i, a := range t.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.quote(a.Column))
		b.WriteString(" = ")
		s.writeExpr(b, a.Value)
	}
	if t.Where != nil {
		b.WriteString(" WHERE ")
		s.writeExpr(b, t.Where)
	}
}

func (s *Serializer) writeDelete(b *strings.Builder, t *DeleteStmt) {
	b.WriteString("DELETE FROM ")
	s.table(b, t.Table)
	if t.Alias != "" {
		b.WriteString(" ")
		b.WriteString(s.quote(t.Alias))
	}
	if t.Where != nil {
		b.WriteString(" WHERE ")
		s.writeExpr(b, t.Where)
	}
}

func (s *Serializer) writeCreateTable(b *strings.Builder, t *CreateTableStmt) {
	b.WriteString("CREATE TABLE ")
	if t.IfNotExists {
		b.WriteString("IF NOT EXISTS ")
	}
	s.table(b, t.Table)
	b.WriteString(" (")
	for i, c := range t.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.quote(c.Name))
		b.WriteString(" ")
		b.WriteString(c.TypeName)
		if c.Size > 0 {
			fmt.Fprintf(b, "(%d)", c.Size)
		}
		if c.PrimaryKey {
			b.WriteString(" PRIMARY KEY")
		}
		if c.NotNull {
			b.WriteString(" NOT NULL")
		}
		if c.AutoIncrement {
			b.WriteString(" AUTO_INCREMENT")
		}
	}
	if len(t.PrimaryKey) > 0 {
		b.WriteString(", PRIMARY KEY (")
		b.WriteString(s.identList(t.PrimaryKey))
		b.WriteString(")")
	}
	b.WriteString(")")
}

func (s *Serializer) writeExpr(b *strings.Builder, e Expr) {
	switch t := e.(type) {
	case *Literal:
		b.WriteString(t.Val.SQLLiteral())
	case *Placeholder:
		b.WriteString("?")
		if s.reads != nil {
			*s.reads = append(*s.reads, t.Index)
		}
	case *ColumnRef:
		if t.Table != "" {
			s.table(b, t.Table)
			b.WriteString(".")
		}
		b.WriteString(s.quote(t.Name))
	case *BinaryExpr:
		// Parenthesize nested boolean operators to preserve precedence.
		lparen := needParens(t.Op, t.L)
		rparen := needParens(t.Op, t.R)
		if lparen {
			b.WriteString("(")
		}
		s.writeExpr(b, t.L)
		if lparen {
			b.WriteString(")")
		}
		b.WriteString(" ")
		b.WriteString(t.Op.String())
		b.WriteString(" ")
		if rparen {
			b.WriteString("(")
		}
		s.writeExpr(b, t.R)
		if rparen {
			b.WriteString(")")
		}
	case *UnaryExpr:
		if t.Op == OpNot {
			b.WriteString("NOT (")
			s.writeExpr(b, t.E)
			b.WriteString(")")
		} else {
			b.WriteString("-(")
			s.writeExpr(b, t.E)
			b.WriteString(")")
		}
	case *InExpr:
		s.writeExpr(b, t.E)
		if t.Not {
			b.WriteString(" NOT")
		}
		b.WriteString(" IN (")
		for i, x := range t.List {
			if i > 0 {
				b.WriteString(", ")
			}
			s.writeExpr(b, x)
		}
		b.WriteString(")")
	case *BetweenExpr:
		s.writeExpr(b, t.E)
		if t.Not {
			b.WriteString(" NOT")
		}
		b.WriteString(" BETWEEN ")
		s.writeExpr(b, t.Lo)
		b.WriteString(" AND ")
		s.writeExpr(b, t.Hi)
	case *LikeExpr:
		s.writeExpr(b, t.E)
		if t.Not {
			b.WriteString(" NOT")
		}
		b.WriteString(" LIKE ")
		s.writeExpr(b, t.Pattern)
	case *IsNullExpr:
		s.writeExpr(b, t.E)
		b.WriteString(" IS ")
		if t.Not {
			b.WriteString("NOT ")
		}
		b.WriteString("NULL")
	case *FuncExpr:
		b.WriteString(t.Name)
		b.WriteString("(")
		if t.Star {
			b.WriteString("*")
		} else {
			if t.Distinct {
				b.WriteString("DISTINCT ")
			}
			for i, a := range t.Args {
				if i > 0 {
					b.WriteString(", ")
				}
				s.writeExpr(b, a)
			}
		}
		b.WriteString(")")
	case *CaseExpr:
		b.WriteString("CASE")
		if t.Operand != nil {
			b.WriteString(" ")
			s.writeExpr(b, t.Operand)
		}
		for _, w := range t.Whens {
			b.WriteString(" WHEN ")
			s.writeExpr(b, w.When)
			b.WriteString(" THEN ")
			s.writeExpr(b, w.Then)
		}
		if t.Else != nil {
			b.WriteString(" ELSE ")
			s.writeExpr(b, t.Else)
		}
		b.WriteString(" END")
	default:
		fmt.Fprintf(b, "/* expr %T */", e)
	}
}

// needParens reports whether a child of a binary operator must be
// parenthesized: OR children under AND, and any boolean child under
// arithmetic/comparison.
func needParens(parent BinOp, child Expr) bool {
	c, ok := child.(*BinaryExpr)
	if !ok {
		return false
	}
	prec := func(op BinOp) int {
		switch op {
		case OpOr:
			return 1
		case OpAnd:
			return 2
		case OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE:
			return 3
		case OpAdd, OpSub, OpConcat:
			return 4
		default:
			return 5
		}
	}
	return prec(c.Op) < prec(parent)
}

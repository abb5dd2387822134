package sqlparser

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"shardingsphere/internal/sqltypes"
)

// Dialect selects identifier quoting and pagination syntax when the
// serializer renders statements back to text (paper Section VI-A's dialect
// dictionaries). Parsing is dialect-tolerant: either quoting style and both
// LIMIT syntaxes are always accepted.
type Dialect uint8

// Supported dialects.
const (
	DialectMySQL Dialect = iota
	DialectPostgreSQL
)

func (d Dialect) String() string {
	if d == DialectPostgreSQL {
		return "PostgreSQL"
	}
	return "MySQL"
}

// parseCount counts Parse invocations; the plan cache's tests assert hot
// paths never re-parse (see ParseCount).
var parseCount atomic.Uint64

// ParseCount returns the number of Parse calls made so far; a test hook
// for asserting that cached plans skip the parser entirely.
func ParseCount() uint64 { return parseCount.Load() }

// Parse parses one SQL statement.
func Parse(sql string) (Statement, error) {
	parseCount.Add(1)
	p := &parser{lex: lexer{src: sql}, sql: sql}
	if err := p.advance(); err != nil {
		return nil, err
	}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	// Allow a trailing semicolon.
	if p.tok.Type == TokenOp && p.tok.Val == ";" {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.Type != TokenEOF {
		return nil, p.errf("unexpected trailing input %q", p.tok.String())
	}
	return stmt, nil
}

type parser struct {
	lex  lexer
	sql  string
	tok  Token
	nArg int // placeholder counter
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Pos: p.tok.Pos, Msg: fmt.Sprintf(format, args...), SQL: p.sql}
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// isKeyword reports whether the current token is the given keyword.
func (p *parser) isKeyword(kw string) bool {
	return p.tok.Type == TokenKeyword && p.tok.Val == kw
}

// acceptKeyword consumes the keyword if present.
func (p *parser) acceptKeyword(kw string) (bool, error) {
	if p.isKeyword(kw) {
		return true, p.advance()
	}
	return false, nil
}

// expectKeyword consumes the keyword or fails.
func (p *parser) expectKeyword(kw string) error {
	if !p.isKeyword(kw) {
		return p.errf("expected %s, got %q", kw, p.tok.String())
	}
	return p.advance()
}

func (p *parser) isOp(op string) bool {
	return p.tok.Type == TokenOp && p.tok.Val == op
}

func (p *parser) acceptOp(op string) (bool, error) {
	if p.isOp(op) {
		return true, p.advance()
	}
	return false, nil
}

func (p *parser) expectOp(op string) error {
	if !p.isOp(op) {
		return p.errf("expected %q, got %q", op, p.tok.String())
	}
	return p.advance()
}

// ident consumes an identifier. Non-reserved keywords are also accepted as
// identifiers so column names like "key" or type names work as table names.
func (p *parser) ident() (string, error) {
	if p.tok.Type == TokenIdent {
		v := p.tok.Val
		return v, p.advance()
	}
	// Permit a few keyword-identifiers that commonly appear as column names.
	if p.tok.Type == TokenKeyword {
		switch p.tok.Val {
		case "KEY", "COUNT", "SUM", "AVG", "MIN", "MAX", "END", "DEFAULT",
			"TEXT", "VARIABLE", "TABLES", "RECOVER":
			v := p.tok.Val
			return v, p.advance()
		}
	}
	return "", p.errf("expected identifier, got %q", p.tok.String())
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.isKeyword("SELECT"):
		return p.parseSelect()
	case p.isKeyword("INSERT"):
		return p.parseInsert()
	case p.isKeyword("UPDATE"):
		return p.parseUpdate()
	case p.isKeyword("DELETE"):
		return p.parseDelete()
	case p.isKeyword("CREATE"):
		return p.parseCreate()
	case p.isKeyword("DROP"):
		return p.parseDrop()
	case p.isKeyword("TRUNCATE"):
		return p.parseTruncate()
	case p.isKeyword("BEGIN"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &BeginStmt{}, nil
	case p.isKeyword("START"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("TRANSACTION"); err != nil {
			return nil, err
		}
		return &BeginStmt{}, nil
	case p.isKeyword("COMMIT"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &CommitStmt{}, nil
	case p.isKeyword("ROLLBACK"):
		return p.parseRollback()
	case p.isWord("SAVEPOINT"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &SavepointStmt{Name: name}, nil
	case p.isKeyword("XA"):
		return p.parseXA()
	case p.isKeyword("SHOW"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("TABLES"); err != nil {
			return nil, err
		}
		return &ShowStmt{What: "TABLES"}, nil
	case p.isKeyword("DESCRIBE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		table, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DescribeStmt{Table: table}, nil
	case p.isKeyword("SET"):
		return p.parseSet()
	default:
		return nil, p.errf("unsupported statement starting with %q", p.tok.String())
	}
}

// --- SELECT ---

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{}
	if ok, err := p.acceptKeyword("DISTINCT"); err != nil {
		return nil, err
	} else if !ok {
		if _, err := p.acceptKeyword("ALL"); err != nil {
			return nil, err
		}
	} else {
		stmt.Distinct = true
	}
	// Projection.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if ok, err := p.acceptOp(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	// FROM is optional (SELECT 1).
	if ok, err := p.acceptKeyword("FROM"); err != nil {
		return nil, err
	} else if ok {
		from, err := p.parseFrom()
		if err != nil {
			return nil, err
		}
		stmt.From = from
	}
	if ok, err := p.acceptKeyword("WHERE"); err != nil {
		return nil, err
	} else if ok {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	if ok, err := p.acceptKeyword("GROUP"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if ok, err := p.acceptOp(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
	}
	if ok, err := p.acceptKeyword("HAVING"); err != nil {
		return nil, err
	} else if ok {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = h
	}
	if ok, err := p.acceptKeyword("ORDER"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if ok, err := p.acceptKeyword("DESC"); err != nil {
				return nil, err
			} else if ok {
				item.Desc = true
			} else if _, err := p.acceptKeyword("ASC"); err != nil {
				return nil, err
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if ok, err := p.acceptOp(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
	}
	lim, err := p.parseLimit()
	if err != nil {
		return nil, err
	}
	stmt.Limit = lim
	if ok, err := p.acceptKeyword("FOR"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKeyword("UPDATE"); err != nil {
			return nil, err
		}
		stmt.ForUpdate = true
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	// "*"
	if p.isOp("*") {
		if err := p.advance(); err != nil {
			return SelectItem{}, err
		}
		return SelectItem{Star: true}, nil
	}
	// "t.*" requires lookahead: parse expression, then check for ".*" pattern.
	// Handle it up front: IDENT "." "*".
	if p.tok.Type == TokenIdent {
		save := *p
		name := p.tok.Val
		if err := p.advance(); err != nil {
			return SelectItem{}, err
		}
		if p.isOp(".") {
			if err := p.advance(); err != nil {
				return SelectItem{}, err
			}
			if p.isOp("*") {
				if err := p.advance(); err != nil {
					return SelectItem{}, err
				}
				return SelectItem{Star: true, StarTable: name}, nil
			}
		}
		*p = save // not "t.*": rewind and parse as expression
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if ok, err := p.acceptKeyword("AS"); err != nil {
		return SelectItem{}, err
	} else if ok {
		a, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if p.tok.Type == TokenIdent {
		item.Alias = p.tok.Val
		if err := p.advance(); err != nil {
			return SelectItem{}, err
		}
	}
	return item, nil
}

func (p *parser) parseFrom() ([]TableRef, error) {
	var refs []TableRef
	first, err := p.parseTableRef(JoinNone)
	if err != nil {
		return nil, err
	}
	refs = append(refs, first)
	for {
		switch {
		case p.isOp(","):
			if err := p.advance(); err != nil {
				return nil, err
			}
			r, err := p.parseTableRef(JoinCross)
			if err != nil {
				return nil, err
			}
			refs = append(refs, r)
		case p.isKeyword("JOIN"), p.isKeyword("INNER"), p.isKeyword("LEFT"),
			p.isKeyword("RIGHT"), p.isKeyword("CROSS"):
			jt := JoinInner
			switch p.tok.Val {
			case "LEFT":
				jt = JoinLeft
			case "RIGHT":
				jt = JoinRight
			case "CROSS":
				jt = JoinCross
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			if _, err := p.acceptKeyword("OUTER"); err != nil {
				return nil, err
			}
			if p.tok.Val != "JOIN" && jt != JoinInner {
				if err := p.expectKeyword("JOIN"); err != nil {
					return nil, err
				}
			} else if p.isKeyword("JOIN") {
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			r, err := p.parseTableRef(jt)
			if err != nil {
				return nil, err
			}
			if jt != JoinCross {
				if err := p.expectKeyword("ON"); err != nil {
					return nil, err
				}
				on, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				r.On = on
			}
			refs = append(refs, r)
		default:
			return refs, nil
		}
	}
}

func (p *parser) parseTableRef(jt JoinType) (TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	r := TableRef{Name: name, Join: jt}
	if ok, err := p.acceptKeyword("AS"); err != nil {
		return TableRef{}, err
	} else if ok {
		a, err := p.ident()
		if err != nil {
			return TableRef{}, err
		}
		r.Alias = a
	} else if p.tok.Type == TokenIdent {
		r.Alias = p.tok.Val
		if err := p.advance(); err != nil {
			return TableRef{}, err
		}
	}
	return r, nil
}

// parseLimit accepts both dialect forms:
// MySQL:      LIMIT count | LIMIT offset, count
// PostgreSQL: LIMIT count [OFFSET offset]
func (p *parser) parseLimit() (*Limit, error) {
	ok, err := p.acceptKeyword("LIMIT")
	if err != nil || !ok {
		return nil, err
	}
	first, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if ok, err := p.acceptOp(","); err != nil {
		return nil, err
	} else if ok {
		count, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return &Limit{Offset: first, Count: count}, nil
	}
	if ok, err := p.acceptKeyword("OFFSET"); err != nil {
		return nil, err
	} else if ok {
		off, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return &Limit{Offset: off, Count: first}, nil
	}
	return &Limit{Count: first}, nil
}

// --- INSERT / UPDATE / DELETE ---

func (p *parser) parseInsert() (*InsertStmt, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: table}
	if ok, err := p.acceptOp("("); err != nil {
		return nil, err
	} else if ok {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, c)
			if ok, err := p.acceptOp(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if ok, err := p.acceptOp(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if ok, err := p.acceptOp(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	return stmt, nil
}

func (p *parser) parseUpdate() (*UpdateStmt, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{Table: table}
	if ok, err := p.acceptKeyword("AS"); err != nil {
		return nil, err
	} else if ok {
		a, err := p.ident()
		if err != nil {
			return nil, err
		}
		stmt.Alias = a
	} else if p.tok.Type == TokenIdent {
		stmt.Alias = p.tok.Val
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		// Allow qualified "alias.col".
		if ok, err := p.acceptOp("."); err != nil {
			return nil, err
		} else if ok {
			col, err = p.ident()
			if err != nil {
				return nil, err
			}
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Set = append(stmt.Set, Assignment{Column: col, Value: v})
		if ok, err := p.acceptOp(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if ok, err := p.acceptKeyword("WHERE"); err != nil {
		return nil, err
	} else if ok {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

func (p *parser) parseDelete() (*DeleteStmt, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: table}
	if p.tok.Type == TokenIdent {
		stmt.Alias = p.tok.Val
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if ok, err := p.acceptKeyword("WHERE"); err != nil {
		return nil, err
	} else if ok {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

// --- DDL ---

func (p *parser) parseCreate() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	if ok, err := p.acceptKeyword("INDEX"); err != nil {
		return nil, err
	} else if ok {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		table, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var cols []string
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			cols = append(cols, c)
			if ok, err := p.acceptOp(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &CreateIndexStmt{Name: name, Table: table, Columns: cols}, nil
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	stmt := &CreateTableStmt{}
	if ok, err := p.acceptKeyword("IF"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		stmt.IfNotExists = true
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt.Table = table
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		if p.isKeyword("PRIMARY") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			for {
				c, err := p.ident()
				if err != nil {
					return nil, err
				}
				stmt.PrimaryKey = append(stmt.PrimaryKey, c)
				if ok, err := p.acceptOp(","); err != nil {
					return nil, err
				} else if !ok {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		} else {
			col, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, col)
		}
		if ok, err := p.acceptOp(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *parser) parseColumnDef() (ColumnDef, error) {
	name, err := p.ident()
	if err != nil {
		return ColumnDef{}, err
	}
	if p.tok.Type != TokenKeyword && p.tok.Type != TokenIdent {
		return ColumnDef{}, p.errf("expected column type, got %q", p.tok.String())
	}
	typeName := upper(p.tok.Val)
	if err := p.advance(); err != nil {
		return ColumnDef{}, err
	}
	def := ColumnDef{Name: name, TypeName: typeName}
	switch typeName {
	case "INT", "INTEGER", "BIGINT":
		def.Type = sqltypes.KindInt
	case "FLOAT", "DOUBLE", "DECIMAL":
		def.Type = sqltypes.KindFloat
	case "VARCHAR", "CHAR", "TEXT":
		def.Type = sqltypes.KindString
	case "BOOLEAN":
		def.Type = sqltypes.KindBool
	default:
		return ColumnDef{}, p.errf("unsupported column type %q", typeName)
	}
	if ok, err := p.acceptOp("("); err != nil {
		return ColumnDef{}, err
	} else if ok {
		if p.tok.Type != TokenInt {
			return ColumnDef{}, p.errf("expected size, got %q", p.tok.String())
		}
		n, _ := strconv.Atoi(p.tok.Val)
		def.Size = n
		if err := p.advance(); err != nil {
			return ColumnDef{}, err
		}
		// DECIMAL(p, s): skip the scale.
		if ok, err := p.acceptOp(","); err != nil {
			return ColumnDef{}, err
		} else if ok {
			if err := p.advance(); err != nil {
				return ColumnDef{}, err
			}
		}
		if err := p.expectOp(")"); err != nil {
			return ColumnDef{}, err
		}
	}
	for {
		switch {
		case p.isKeyword("PRIMARY"):
			if err := p.advance(); err != nil {
				return ColumnDef{}, err
			}
			if err := p.expectKeyword("KEY"); err != nil {
				return ColumnDef{}, err
			}
			def.PrimaryKey = true
		case p.isKeyword("NOT"):
			if err := p.advance(); err != nil {
				return ColumnDef{}, err
			}
			if err := p.expectKeyword("NULL"); err != nil {
				return ColumnDef{}, err
			}
			def.NotNull = true
		case p.isKeyword("NULL"):
			if err := p.advance(); err != nil {
				return ColumnDef{}, err
			}
		case p.isKeyword("AUTO_INCREMENT"):
			if err := p.advance(); err != nil {
				return ColumnDef{}, err
			}
			def.AutoIncrement = true
		case p.isKeyword("DEFAULT"):
			if err := p.advance(); err != nil {
				return ColumnDef{}, err
			}
			// Consume and ignore the default literal.
			if _, err := p.parsePrimary(); err != nil {
				return ColumnDef{}, err
			}
		default:
			return def, nil
		}
	}
}

func (p *parser) parseDrop() (Statement, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	stmt := &DropTableStmt{}
	if ok, err := p.acceptKeyword("IF"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		stmt.IfExists = true
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt.Table = table
	return stmt, nil
}

func (p *parser) parseTruncate() (Statement, error) {
	if err := p.expectKeyword("TRUNCATE"); err != nil {
		return nil, err
	}
	if _, err := p.acceptKeyword("TABLE"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &TruncateStmt{Table: table}, nil
}

// --- TCL / XA / SET ---

// isWord reports whether the current token is the given word, which is not
// reserved and so lexes as an identifier.
func (p *parser) isWord(w string) bool {
	return p.tok.Type == TokenIdent && upper(p.tok.Val) == w
}

// acceptWord consumes the unreserved word if present.
func (p *parser) acceptWord(w string) (bool, error) {
	if p.isWord(w) {
		return true, p.advance()
	}
	return false, nil
}

// parseRollback parses ROLLBACK and ROLLBACK TO [SAVEPOINT] name.
func (p *parser) parseRollback() (Statement, error) {
	if err := p.expectKeyword("ROLLBACK"); err != nil {
		return nil, err
	}
	if to, err := p.acceptWord("TO"); err != nil || !to {
		return &RollbackStmt{}, err
	}
	if _, err := p.acceptWord("SAVEPOINT"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &RollbackStmt{Savepoint: name}, nil
}

func (p *parser) parseXA() (Statement, error) {
	if err := p.expectKeyword("XA"); err != nil {
		return nil, err
	}
	var op XAOp
	switch {
	case p.isKeyword("BEGIN") || p.isKeyword("START"):
		op = XABegin
	case p.isKeyword("END"):
		op = XAEnd
	case p.isKeyword("PREPARE"):
		op = XAPrepare
	case p.isKeyword("COMMIT"):
		op = XACommit
	case p.isKeyword("ROLLBACK"):
		op = XARollback
	case p.isKeyword("RECOVER"):
		op = XARecover
	case p.isWord("ADOPT"):
		op = XAAdopt
	default:
		return nil, p.errf("unsupported XA verb %q", p.tok.String())
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	stmt := &XAStmt{Op: op}
	if op != XARecover {
		switch p.tok.Type {
		case TokenString:
			stmt.XID = p.tok.Val
		case TokenPlaceholder:
			stmt.Bound = true
		default:
			return nil, p.errf("expected XID string or ?, got %q", p.tok.String())
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

func (p *parser) parseSet() (Statement, error) {
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	// Accept "SET VARIABLE name = v" (DistSQL RAL) and "SET name = v".
	if _, err := p.acceptKeyword("VARIABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("="); err != nil {
		return nil, err
	}
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	var v sqltypes.Value
	switch t := e.(type) {
	case *Literal:
		v = t.Val
	case *ColumnRef:
		// Bare words like LOCAL parse as column refs; take the text.
		v = sqltypes.NewString(t.Name)
	default:
		return nil, p.errf("SET value must be a literal")
	}
	return &SetStmt{Name: name, Value: v}, nil
}

// --- Expressions (precedence climbing) ---

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("OR") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpOr, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("AND") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpAnd, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.isKeyword("NOT") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: OpNot, E: e}, nil
	}
	return p.parsePredicate()
}

// parsePredicate handles comparison, IN, BETWEEN, LIKE, IS NULL.
func (p *parser) parsePredicate() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	not := false
	if p.isKeyword("NOT") {
		// lookahead for IN / BETWEEN / LIKE
		if err := p.advance(); err != nil {
			return nil, err
		}
		not = true
	}
	switch {
	case p.isKeyword("IN"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		in := &InExpr{E: left, Not: not}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			in.List = append(in.List, e)
			if ok, err := p.acceptOp(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return in, nil
	case p.isKeyword("BETWEEN"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: left, Lo: lo, Hi: hi, Not: not}, nil
	case p.isKeyword("LIKE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &LikeExpr{E: left, Pattern: pat, Not: not}, nil
	case p.isKeyword("IS"):
		if not {
			return nil, p.errf("unexpected NOT before IS")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		isNot := false
		if ok, err := p.acceptKeyword("NOT"); err != nil {
			return nil, err
		} else if ok {
			isNot = true
		}
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{E: left, Not: isNot}, nil
	}
	if not {
		return nil, p.errf("expected IN, BETWEEN or LIKE after NOT")
	}
	// Comparison operators.
	if p.tok.Type == TokenOp {
		var op BinOp
		matched := true
		switch p.tok.Val {
		case "=":
			op = OpEQ
		case "<>":
			op = OpNE
		case "<":
			op = OpLT
		case "<=":
			op = OpLE
		case ">":
			op = OpGT
		case ">=":
			op = OpGE
		default:
			matched = false
		}
		if matched {
			if err := p.advance(); err != nil {
				return nil, err
			}
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, L: left, R: right}, nil
		}
	}
	return left, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.tok.Type == TokenOp && (p.tok.Val == "+" || p.tok.Val == "-" || p.tok.Val == "||") {
		op := OpAdd
		switch p.tok.Val {
		case "-":
			op = OpSub
		case "||":
			op = OpConcat
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.Type == TokenOp && (p.tok.Val == "*" || p.tok.Val == "/" || p.tok.Val == "%") {
		op := OpMul
		switch p.tok.Val {
		case "/":
			op = OpDiv
		case "%":
			op = OpMod
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.isOp("-") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negative literals, so "-5" routes and serializes naturally.
		if lit, ok := e.(*Literal); ok {
			switch lit.Val.Kind {
			case sqltypes.KindInt:
				return &Literal{Val: sqltypes.NewInt(-lit.Val.I)}, nil
			case sqltypes.KindFloat:
				return &Literal{Val: sqltypes.NewFloat(-lit.Val.F)}, nil
			}
		}
		return &UnaryExpr{Op: OpNeg, E: e}, nil
	}
	if p.isOp("+") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	switch p.tok.Type {
	case TokenInt:
		n, err := strconv.ParseInt(p.tok.Val, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer literal %q", p.tok.Val)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Literal{Val: sqltypes.NewInt(n)}, nil
	case TokenFloat:
		f, err := strconv.ParseFloat(p.tok.Val, 64)
		if err != nil {
			return nil, p.errf("bad float literal %q", p.tok.Val)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Literal{Val: sqltypes.NewFloat(f)}, nil
	case TokenString:
		s := p.tok.Val
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Literal{Val: sqltypes.NewString(s)}, nil
	case TokenPlaceholder:
		idx := p.nArg
		p.nArg++
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Placeholder{Index: idx}, nil
	case TokenKeyword:
		switch p.tok.Val {
		case "NULL":
			if err := p.advance(); err != nil {
				return nil, err
			}
			return &Literal{Val: sqltypes.Null}, nil
		case "TRUE":
			if err := p.advance(); err != nil {
				return nil, err
			}
			return &Literal{Val: sqltypes.NewBool(true)}, nil
		case "FALSE":
			if err := p.advance(); err != nil {
				return nil, err
			}
			return &Literal{Val: sqltypes.NewBool(false)}, nil
		case "CASE":
			return p.parseCase()
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			return p.parseFuncCall(p.tok.Val)
		}
		return nil, p.errf("unexpected keyword %q in expression", p.tok.Val)
	case TokenIdent:
		name := p.tok.Val
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.isOp("(") {
			return p.parseFuncCall(name)
		}
		if p.isOp(".") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: name, Name: col}, nil
		}
		return &ColumnRef{Name: name}, nil
	case TokenOp:
		if p.tok.Val == "(" {
			if err := p.advance(); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected token %q in expression", p.tok.String())
}

// parseFuncCall parses name(...). The name token has already been consumed
// for identifiers; for aggregate keywords it is still current.
func (p *parser) parseFuncCall(name string) (Expr, error) {
	if p.tok.Type == TokenKeyword && upper(p.tok.Val) == upper(name) {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	f := &FuncExpr{Name: upper(name)}
	if ok, err := p.acceptOp("*"); err != nil {
		return nil, err
	} else if ok {
		f.Star = true
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return f, nil
	}
	if ok, err := p.acceptOp(")"); err != nil {
		return nil, err
	} else if ok {
		return f, nil
	}
	if ok, err := p.acceptKeyword("DISTINCT"); err != nil {
		return nil, err
	} else if ok {
		f.Distinct = true
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Args = append(f.Args, e)
		if ok, err := p.acceptOp(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return f, nil
}

func (p *parser) parseCase() (Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	c := &CaseExpr{}
	if !p.isKeyword("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.isKeyword("WHEN") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		t, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, WhenClause{When: w, Then: t})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN")
	}
	if ok, err := p.acceptKeyword("ELSE"); err != nil {
		return nil, err
	} else if ok {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}

package sqlparser

import (
	"shardingsphere/internal/sqltypes"
)

// Statement is any parsed SQL statement.
type Statement interface {
	stmtNode()
	// StatementType returns the coarse class used by the router to decide
	// between sharding route and broadcast route (paper Section VI-B).
	StatementType() StatementType
}

// StatementType is the coarse classification of a statement.
type StatementType uint8

// Statement classes. DQL/DML participate in sharding route; DDL and TCL
// are broadcast (paper Section VI-B).
const (
	StmtSelect StatementType = iota
	StmtInsert
	StmtUpdate
	StmtDelete
	StmtDDL
	StmtTCL
	StmtXA
	StmtShow
	StmtSet
)

func (t StatementType) String() string {
	switch t {
	case StmtSelect:
		return "SELECT"
	case StmtInsert:
		return "INSERT"
	case StmtUpdate:
		return "UPDATE"
	case StmtDelete:
		return "DELETE"
	case StmtDDL:
		return "DDL"
	case StmtTCL:
		return "TCL"
	case StmtXA:
		return "XA"
	case StmtShow:
		return "SHOW"
	case StmtSet:
		return "SET"
	default:
		return "UNKNOWN"
	}
}

// IsDML reports whether the statement class writes table data.
func (t StatementType) IsDML() bool {
	return t == StmtInsert || t == StmtUpdate || t == StmtDelete
}

// --- Expressions ---

// Expr is any SQL expression node.
type Expr interface{ exprNode() }

// ColumnRef names a column, optionally qualified by a table name or alias.
type ColumnRef struct {
	Table string // optional qualifier
	Name  string
}

// Literal is a constant value.
type Literal struct {
	Val sqltypes.Value
}

// Placeholder is a `?` parameter, numbered left to right from 0.
type Placeholder struct {
	Index int
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	OpEQ BinOp = iota
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpConcat
)

func (o BinOp) String() string {
	switch o {
	case OpEQ:
		return "="
	case OpNE:
		return "<>"
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpConcat:
		return "||"
	default:
		return "?op?"
	}
}

// BinaryExpr is L op R.
type BinaryExpr struct {
	Op   BinOp
	L, R Expr
}

// UnaryOp enumerates unary operators.
type UnaryOp uint8

// Unary operators.
const (
	OpNot UnaryOp = iota
	OpNeg
)

// UnaryExpr is op E.
type UnaryExpr struct {
	Op UnaryOp
	E  Expr
}

// InExpr is E [NOT] IN (list...).
type InExpr struct {
	E    Expr
	List []Expr
	Not  bool
}

// BetweenExpr is E [NOT] BETWEEN Lo AND Hi.
type BetweenExpr struct {
	E, Lo, Hi Expr
	Not       bool
}

// LikeExpr is E [NOT] LIKE Pattern ('%' and '_' wildcards).
type LikeExpr struct {
	E, Pattern Expr
	Not        bool
}

// IsNullExpr is E IS [NOT] NULL.
type IsNullExpr struct {
	E   Expr
	Not bool
}

// FuncExpr is a function call; aggregates set Star/Distinct as needed
// (COUNT(*), COUNT(DISTINCT x)).
type FuncExpr struct {
	Name     string
	Args     []Expr
	Star     bool
	Distinct bool
}

// IsAggregate reports whether this call is an aggregate function.
func (f *FuncExpr) IsAggregate() bool { return IsAggregateFunc(f.Name) }

// CaseExpr is CASE [Operand] WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []WhenClause
	Else    Expr
}

// WhenClause is one WHEN/THEN arm of a CASE expression.
type WhenClause struct {
	When Expr
	Then Expr
}

func (*ColumnRef) exprNode()   {}
func (*Literal) exprNode()     {}
func (*Placeholder) exprNode() {}
func (*BinaryExpr) exprNode()  {}
func (*UnaryExpr) exprNode()   {}
func (*InExpr) exprNode()      {}
func (*BetweenExpr) exprNode() {}
func (*LikeExpr) exprNode()    {}
func (*IsNullExpr) exprNode()  {}
func (*FuncExpr) exprNode()    {}
func (*CaseExpr) exprNode()    {}

// --- SELECT ---

// SelectItem is one projection item. Star items are "*" or "t.*".
type SelectItem struct {
	Expr      Expr
	Alias     string
	Star      bool
	StarTable string // qualifier of "t.*", empty for bare "*"
}

// JoinType enumerates join kinds. An outer join's ON narrows no route, and
// its NULL-extended side limits how the join may be split (package route).
type JoinType uint8

// Join kinds.
const (
	JoinNone JoinType = iota // first table in FROM
	JoinInner
	JoinLeft
	JoinRight
	JoinCross
)

func (j JoinType) String() string {
	switch j {
	case JoinInner:
		return "JOIN"
	case JoinLeft:
		return "LEFT JOIN"
	case JoinRight:
		return "RIGHT JOIN"
	case JoinCross:
		return "CROSS JOIN"
	default:
		return ""
	}
}

// TableRef is one table in the FROM clause, with its join to the previous
// table. FROM lists are kept linear (a, b, c) rather than as a tree; comma
// joins parse as JoinCross with nil On.
type TableRef struct {
	Name  string
	Alias string
	Join  JoinType
	On    Expr // nil for JoinNone / comma joins
}

// OrderItem is one ORDER BY expression.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Limit is the pagination clause. Offset may be nil. Values are expressions
// so placeholders work, but must evaluate to non-negative integers.
type Limit struct {
	Offset Expr // nil when absent
	Count  Expr
}

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct  bool
	Items     []SelectItem
	From      []TableRef
	Where     Expr
	GroupBy   []Expr
	Having    Expr
	OrderBy   []OrderItem
	Limit     *Limit
	ForUpdate bool
}

func (*SelectStmt) stmtNode()                    {}
func (*SelectStmt) StatementType() StatementType { return StmtSelect }

// --- INSERT / UPDATE / DELETE ---

// Assignment is "col = expr" in UPDATE SET clauses.
type Assignment struct {
	Column string
	Value  Expr
}

// InsertStmt is a (possibly multi-row) INSERT.
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr
}

func (*InsertStmt) stmtNode()                    {}
func (*InsertStmt) StatementType() StatementType { return StmtInsert }

// UpdateStmt is an UPDATE.
type UpdateStmt struct {
	Table string
	Alias string
	Set   []Assignment
	Where Expr
}

func (*UpdateStmt) stmtNode()                    {}
func (*UpdateStmt) StatementType() StatementType { return StmtUpdate }

// DeleteStmt is a DELETE.
type DeleteStmt struct {
	Table string
	Alias string
	Where Expr
}

func (*DeleteStmt) stmtNode()                    {}
func (*DeleteStmt) StatementType() StatementType { return StmtDelete }

// --- DDL ---

// ColumnDef is one column definition in CREATE TABLE.
type ColumnDef struct {
	Name          string
	Type          sqltypes.Kind
	TypeName      string // original type word, e.g. VARCHAR
	Size          int    // VARCHAR(n)/CHAR(n), 0 when absent
	PrimaryKey    bool
	NotNull       bool
	AutoIncrement bool
}

// CreateTableStmt is CREATE TABLE.
type CreateTableStmt struct {
	Table       string
	IfNotExists bool
	Columns     []ColumnDef
	PrimaryKey  []string // table-level PRIMARY KEY (...), empty if per-column
}

func (*CreateTableStmt) stmtNode()                    {}
func (*CreateTableStmt) StatementType() StatementType { return StmtDDL }

// DropTableStmt is DROP TABLE.
type DropTableStmt struct {
	Table    string
	IfExists bool
}

func (*DropTableStmt) stmtNode()                    {}
func (*DropTableStmt) StatementType() StatementType { return StmtDDL }

// TruncateStmt is TRUNCATE TABLE.
type TruncateStmt struct {
	Table string
}

func (*TruncateStmt) stmtNode()                    {}
func (*TruncateStmt) StatementType() StatementType { return StmtDDL }

// CreateIndexStmt is CREATE INDEX name ON table (cols).
type CreateIndexStmt struct {
	Name    string
	Table   string
	Columns []string
}

func (*CreateIndexStmt) stmtNode()                    {}
func (*CreateIndexStmt) StatementType() StatementType { return StmtDDL }

// --- TCL ---

// BeginStmt is BEGIN / START TRANSACTION.
type BeginStmt struct{}

// CommitStmt is COMMIT.
type CommitStmt struct{}

// RollbackStmt is ROLLBACK, or ROLLBACK TO [SAVEPOINT] name when Savepoint
// is set: the transaction stays open without the writes made since the
// savepoint.
type RollbackStmt struct {
	Savepoint string
}

// SavepointStmt is SAVEPOINT name.
type SavepointStmt struct {
	Name string
}

func (*BeginStmt) stmtNode()                    {}
func (*BeginStmt) StatementType() StatementType { return StmtTCL }

func (*CommitStmt) stmtNode()                    {}
func (*CommitStmt) StatementType() StatementType { return StmtTCL }

func (*RollbackStmt) stmtNode()                    {}
func (*RollbackStmt) StatementType() StatementType { return StmtTCL }

func (*SavepointStmt) stmtNode()                    {}
func (*SavepointStmt) StatementType() StatementType { return StmtTCL }

// XAOp enumerates XA verbs sent to data nodes during 2PC.
type XAOp uint8

// XA verbs (a pragmatic subset of the X/Open XA command set).
const (
	XABegin XAOp = iota
	XAEnd
	XAPrepare
	XACommit
	XARollback
	XARecover
	// XAAdopt binds a session's active plain transaction to an XID so it
	// can be prepared — the lazy single-shard→XA upgrade verb (not part
	// of X/Open; a ShardingSphere-dialect extension).
	XAAdopt
)

func (o XAOp) String() string {
	switch o {
	case XABegin:
		return "XA BEGIN"
	case XAEnd:
		return "XA END"
	case XAPrepare:
		return "XA PREPARE"
	case XACommit:
		return "XA COMMIT"
	case XARollback:
		return "XA ROLLBACK"
	case XARecover:
		return "XA RECOVER"
	case XAAdopt:
		return "XA ADOPT"
	default:
		return "XA ?"
	}
}

// XAStmt is an XA transaction-control statement, e.g. XA PREPARE 'xid',
// or XA PREPARE ? with the xid bound as the statement's one argument: the
// form the coordinator sends, one text per verb whatever the xid.
type XAStmt struct {
	Op    XAOp
	XID   string
	Bound bool // the xid is the bind argument, not XID
}

func (*XAStmt) stmtNode()                    {}
func (*XAStmt) StatementType() StatementType { return StmtXA }

// ShowStmt is SHOW TABLES (the only SHOW the data nodes serve; DistSQL has
// its own richer SHOW family).
type ShowStmt struct {
	What string
}

func (*ShowStmt) stmtNode()                    {}
func (*ShowStmt) StatementType() StatementType { return StmtShow }

// DescribeStmt is DESCRIBE <table>: it returns one row per column with
// (name, type, pk). The distributed transaction manager uses it to learn
// primary keys for BASE-mode compensation SQL.
type DescribeStmt struct {
	Table string
}

func (*DescribeStmt) stmtNode()                    {}
func (*DescribeStmt) StatementType() StatementType { return StmtShow }

// SetStmt is SET name = value; used for session variables such as the
// transaction type (paper Section V-A, RAL).
type SetStmt struct {
	Name  string
	Value sqltypes.Value
}

func (*SetStmt) stmtNode()                    {}
func (*SetStmt) StatementType() StatementType { return StmtSet }

// Package sqlparser implements the SQL front end shared by the sharding
// kernel and the per-node query processors: a lexer, a recursive-descent
// parser producing an AST, and a dialect-aware serializer used by the SQL
// rewriter (paper Section VI-A, VI-C).
//
// The grammar covers the SQL-92 subset the paper's data sources rely on:
// SELECT with joins, grouping, ordering and pagination; multi-row INSERT;
// UPDATE; DELETE; table DDL; transaction control; and the XA verbs the
// distributed transaction manager sends to data nodes.
package sqlparser

import "fmt"

// TokenType classifies a lexical token.
type TokenType uint8

// Token types. Keywords are folded into TokenKeyword with the upper-cased
// text in Token.Val, which keeps the lexer table-free and the parser
// readable ("p.accept(TokenKeyword, "SELECT")").
const (
	TokenEOF TokenType = iota
	TokenIdent
	TokenKeyword
	TokenInt
	TokenFloat
	TokenString
	TokenPlaceholder // ?
	TokenOp          // operators and punctuation: = < > <= >= <> != ( ) , . * + - / %
)

// Token is one lexical token with its source position (byte offset).
type Token struct {
	Type TokenType
	Val  string
	Pos  int
}

func (t Token) String() string {
	switch t.Type {
	case TokenEOF:
		return "<eof>"
	case TokenString:
		return fmt.Sprintf("'%s'", t.Val)
	default:
		return t.Val
	}
}

// keywords is the reserved-word set. Identifiers matching these (case
// insensitively) lex as TokenKeyword.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "OR": true,
	"NOT": true, "IN": true, "BETWEEN": true, "LIKE": true, "IS": true,
	"NULL": true, "TRUE": true, "FALSE": true, "AS": true, "JOIN": true,
	"INNER": true, "LEFT": true, "RIGHT": true, "OUTER": true, "CROSS": true,
	"ON": true, "GROUP": true, "BY": true, "HAVING": true, "ORDER": true,
	"ASC": true, "DESC": true, "LIMIT": true, "OFFSET": true, "DISTINCT": true,
	"INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true, "SET": true,
	"DELETE": true, "CREATE": true, "TABLE": true, "DROP": true, "TRUNCATE": true,
	"INDEX": true, "PRIMARY": true, "KEY": true, "IF": true, "EXISTS": true,
	"BEGIN": true, "START": true, "TRANSACTION": true, "COMMIT": true,
	"ROLLBACK": true, "XA": true, "PREPARE": true, "END": true, "RECOVER": true,
	"FOR": true, "SHOW": true, "TABLES": true, "COUNT": true, "SUM": true,
	"AVG": true, "MIN": true, "MAX": true, "INT": true, "INTEGER": true,
	"BIGINT": true, "FLOAT": true, "DOUBLE": true, "VARCHAR": true, "CHAR": true,
	"TEXT": true, "BOOLEAN": true, "DECIMAL": true, "UNION": true, "ALL": true,
	"CASE": true, "WHEN": true, "THEN": true, "ELSE": true, "USE": true,
	"DESCRIBE":       true,
	"AUTO_INCREMENT": true, "DEFAULT": true, "VARIABLE": true,
}

// maxKeywordLen is the longest reserved word (AUTO_INCREMENT).
const maxKeywordLen = 14

// isKeyword reports whether ident is a reserved word in any case. It
// upper-cases into a stack buffer, so the serializer's per-identifier
// quoting check allocates nothing.
func isKeyword(ident string) bool {
	if len(ident) > maxKeywordLen {
		return false
	}
	var buf [maxKeywordLen]byte
	for i := 0; i < len(ident); i++ {
		c := ident[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	return keywords[string(buf[:len(ident)])]
}

// aggregateFuncs is the set of aggregate function names the merger
// understands (paper Section VI-E).
var aggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// IsAggregateFunc reports whether name (any case) is an aggregate function.
func IsAggregateFunc(name string) bool { return aggregateFuncs[upper(name)] }

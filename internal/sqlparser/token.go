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

import (
	"fmt"
	"strings"
)

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

// keywordList is the reserved-word set, upper case. Identifiers matching
// these (case insensitively) lex as TokenKeyword.
var keywordList = strings.Fields(`SELECT FROM WHERE AND OR NOT IN BETWEEN LIKE IS NULL TRUE FALSE AS JOIN
	INNER LEFT RIGHT OUTER CROSS ON GROUP BY HAVING ORDER ASC DESC LIMIT OFFSET DISTINCT
	INSERT INTO VALUES UPDATE SET DELETE CREATE TABLE DROP TRUNCATE INDEX PRIMARY KEY IF EXISTS
	BEGIN START TRANSACTION COMMIT ROLLBACK XA PREPARE END RECOVER FOR SHOW TABLES
	COUNT SUM AVG MIN MAX INT INTEGER BIGINT FLOAT DOUBLE VARCHAR CHAR TEXT BOOLEAN DECIMAL
	UNION ALL CASE WHEN THEN ELSE USE DESCRIBE AUTO_INCREMENT DEFAULT VARIABLE`)

// maxKeywordLen is the longest reserved word (AUTO_INCREMENT).
const maxKeywordLen = 14

// keywordTable buckets the reserved words by length and first letter; a
// bucket holds at most a few.
var keywordTable = func() (t [maxKeywordLen + 1]['Z' - 'A' + 1][]string) {
	for _, w := range keywordList {
		t[len(w)][w[0]-'A'] = append(t[len(w)][w[0]-'A'], w)
	}
	return t
}()

// keyword returns the reserved word ident spells in any case, or "": the
// table's string, so lexing a keyword allocates nothing. It compares ident
// with its bucket's words in place and hashes nothing, so neither the lexer
// nor the serializer's per-identifier quoting check pays for a map lookup.
// The letters EqualFold folds to ASCII ones ('ſ' to 's', 'K' to 'k') take
// more bytes than they do, so no bucket of ASCII words matches them.
func keyword(ident string) string {
	if len(ident) == 0 || len(ident) > maxKeywordLen {
		return ""
	}
	c := ident[0] | 0x20 // an ASCII letter in lower case
	if c < 'a' || c > 'z' {
		return ""
	}
	for _, w := range keywordTable[len(ident)][c-'a'] {
		if strings.EqualFold(ident, w) {
			return w
		}
	}
	return ""
}

// isKeyword reports whether ident is a reserved word in any case.
func isKeyword(ident string) bool { return keyword(ident) != "" }

// aggregateFuncs is the set of aggregate function names the merger
// understands (paper Section VI-E).
var aggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// IsAggregateFunc reports whether name (any case) is an aggregate function.
func IsAggregateFunc(name string) bool { return aggregateFuncs[upper(name)] }

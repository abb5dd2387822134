package sqlparser

import (
	"fmt"
	"strings"
)

// upper is an ASCII-only ToUpper, sufficient for SQL keywords and much
// cheaper than the Unicode-aware strings.ToUpper on the parse hot path.
func upper(s string) string {
	hasLower := false
	for i := 0; i < len(s); i++ {
		if s[i] >= 'a' && s[i] <= 'z' {
			hasLower = true
			break
		}
	}
	if !hasLower {
		return s
	}
	b := []byte(s)
	for i, c := range b {
		if c >= 'a' && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

// ParseError is a syntax error with the byte offset where it occurred.
type ParseError struct {
	Pos int
	Msg string
	SQL string
}

func (e *ParseError) Error() string {
	snippet := e.SQL
	if e.Pos >= 0 && e.Pos < len(snippet) {
		snippet = snippet[:e.Pos] + "<<HERE>>" + snippet[e.Pos:]
	}
	if len(snippet) > 200 {
		snippet = snippet[:200] + "..."
	}
	return fmt.Sprintf("sql syntax error at offset %d: %s in %q", e.Pos, e.Msg, snippet)
}

// lexer tokenizes a SQL string. Identifiers may be quoted with backticks
// (MySQL) or double quotes (PostgreSQL/SQL-92); both are accepted in every
// dialect so logical SQL written for one dialect parses under the other.
type lexer struct {
	src string
	pos int
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}
func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) || c == '$' }

// next scans and returns the next token.
func (l *lexer) next() (Token, error) {
	l.skipSpaceAndComments()
	start := l.pos
	if l.pos >= len(l.src) {
		return Token{Type: TokenEOF, Pos: start}, nil
	}
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		l.pos++
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		word := l.src[start:l.pos]
		if kw := keyword(word); kw != "" {
			return Token{Type: TokenKeyword, Val: kw, Pos: start}, nil
		}
		return Token{Type: TokenIdent, Val: word, Pos: start}, nil
	case isDigit(c) || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
		return l.scanNumber()
	case c == '\'':
		return l.scanString('\'')
	case c == '`', c == '"':
		return l.scanQuotedIdent(c)
	case c == '?':
		l.pos++
		return Token{Type: TokenPlaceholder, Val: "?", Pos: start}, nil
	}
	// Operators, longest match first; each is a slice of the source.
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "<>", "!=", "||":
		l.pos += 2
		if two == "!=" {
			two = "<>"
		}
		return Token{Type: TokenOp, Val: two, Pos: start}, nil
	}
	switch c {
	case '=', '<', '>', '(', ')', ',', '.', '*', '+', '-', '/', '%', ';':
		l.pos++
		return Token{Type: TokenOp, Val: l.src[start:l.pos], Pos: start}, nil
	}
	return Token{}, &ParseError{Pos: start, Msg: fmt.Sprintf("unexpected character %q", c), SQL: l.src}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isSpace(c):
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
			} else {
				l.pos += 2 + end + 2
			}
		default:
			return
		}
	}
}

func (l *lexer) scanNumber() (Token, error) {
	start := l.pos
	isFloat := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if isDigit(c) {
			l.pos++
		} else if c == '.' && !isFloat {
			isFloat = true
			l.pos++
		} else if (c == 'e' || c == 'E') && l.pos > start {
			// exponent
			save := l.pos
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
			if l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				isFloat = true
				for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
					l.pos++
				}
			} else {
				l.pos = save
				break
			}
		} else {
			break
		}
	}
	typ := TokenInt
	if isFloat {
		typ = TokenFloat
	}
	return Token{Type: typ, Val: l.src[start:l.pos], Pos: start}, nil
}

// scanString scans a single-quoted string literal. Both doubled quotes
// ('it”s') and backslash escapes ('it\'s') are accepted. A literal without
// either is a slice of the source; storage copies what it keeps, so a
// stored value does not keep its statement's text alive.
func (l *lexer) scanString(quote byte) (Token, error) {
	start := l.pos
	l.pos++ // opening quote
	if n := strings.IndexByte(l.src[l.pos:], quote); n >= 0 {
		end := l.pos + n
		if (end+1 == len(l.src) || l.src[end+1] != quote) && strings.IndexByte(l.src[l.pos:end], '\\') < 0 {
			val := l.src[l.pos:end]
			l.pos = end + 1
			return Token{Type: TokenString, Val: val, Pos: start}, nil
		}
	}
	var b strings.Builder
	l.growTo(&b, quote)
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case quote:
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == quote {
				b.WriteByte(quote)
				l.pos += 2
				continue
			}
			l.pos++
			return Token{Type: TokenString, Val: b.String(), Pos: start}, nil
		case '\\':
			if l.pos+1 < len(l.src) {
				esc := l.src[l.pos+1]
				switch esc {
				case 'n':
					b.WriteByte('\n')
				case 't':
					b.WriteByte('\t')
				case 'r':
					b.WriteByte('\r')
				case '0':
					b.WriteByte(0)
				default:
					b.WriteByte(esc)
				}
				l.pos += 2
				continue
			}
			l.pos++
		default:
			b.WriteByte(c)
			l.pos++
		}
	}
	return Token{}, &ParseError{Pos: start, Msg: "unterminated string literal", SQL: l.src}
}

// scanQuotedIdent scans a `quoted` or "quoted" identifier.
func (l *lexer) scanQuotedIdent(quote byte) (Token, error) {
	start := l.pos
	l.pos++
	var b strings.Builder
	l.growTo(&b, quote)
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == quote {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == quote {
				b.WriteByte(quote)
				l.pos += 2
				continue
			}
			l.pos++
			return Token{Type: TokenIdent, Val: b.String(), Pos: start}, nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return Token{}, &ParseError{Pos: start, Msg: "unterminated quoted identifier", SQL: l.src}
}

// growTo sizes b for the text up to the next quote, so a quoted token
// without escapes is one allocation of its own length.
func (l *lexer) growTo(b *strings.Builder, quote byte) {
	if n := strings.IndexByte(l.src[l.pos:], quote); n > 0 {
		b.Grow(n)
	}
}

// Tokenize scans the whole input; used by tests and the DistSQL parser.
func Tokenize(sql string) ([]Token, error) {
	l := &lexer{src: sql}
	var out []Token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Type == TokenEOF {
			return out, nil
		}
	}
}

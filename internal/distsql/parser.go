package distsql

import (
	"fmt"
	"strings"

	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sqlparser"
)

// nextWord returns the run of letters, digits and underscores that follows
// sql's leading whitespace, and the text after it. It allocates nothing.
func nextWord(sql string) (word, rest string) {
	i := 0
	for i < len(sql) && (sql[i] == ' ' || sql[i] == '\t' || sql[i] == '\n' || sql[i] == '\r') {
		i++
	}
	j := i
	for j < len(sql) {
		c := sql[j]
		if !(c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
			break
		}
		j++
	}
	return sql[i:j], sql[j:]
}

// isKeyword reports whether word spells the upper-case ASCII keyword kw in
// any case.
func isKeyword(word, kw string) bool {
	if len(word) != len(kw) {
		return false
	}
	for i := 0; i < len(kw); i++ {
		c := word[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != kw[i] {
			return false
		}
	}
	return true
}

// parser walks the tokens of a verb's arguments: what the shared SQL lexer
// makes of the text after the verb's keywords.
type parser struct {
	toks []sqlparser.Token
	pos  int
	sql  string // the whole statement, for error messages
}

func newParser(sql, args string) (*parser, error) {
	toks, err := sqlparser.Tokenize(args)
	if err != nil {
		return nil, err
	}
	return &parser{toks: toks, sql: sql}, nil
}

func (p *parser) cur() sqlparser.Token { return p.toks[p.pos] }

// word returns the upper-cased text of the current token if it is a word.
func (p *parser) word() string {
	t := p.cur()
	if t.Type == sqlparser.TokenIdent || t.Type == sqlparser.TokenKeyword {
		return strings.ToUpper(t.Val)
	}
	return ""
}

// accept consumes the token if its text matches (case-insensitive).
func (p *parser) accept(text string) bool {
	t := p.cur()
	if strings.EqualFold(t.Val, text) && t.Type != sqlparser.TokenEOF && t.Type != sqlparser.TokenString {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return fmt.Errorf("distsql: expected %q, got %q in %q", text, p.cur().Val, p.sql)
	}
	return nil
}

// end checks that nothing but an optional semicolon follows the arguments.
func (p *parser) end() error {
	p.accept(";")
	if p.cur().Type != sqlparser.TokenEOF {
		return fmt.Errorf("distsql: trailing input after statement: %q", p.cur().Val)
	}
	return nil
}

// ident consumes an identifier (or keyword used as one).
func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.Type == sqlparser.TokenIdent || t.Type == sqlparser.TokenKeyword {
		p.pos++
		return t.Val, nil
	}
	return "", fmt.Errorf("distsql: expected identifier, got %q in %q", t.Val, p.sql)
}

// value consumes a string, number or bare word as its text.
func (p *parser) value() (string, error) {
	t := p.cur()
	switch t.Type {
	case sqlparser.TokenString, sqlparser.TokenInt, sqlparser.TokenFloat,
		sqlparser.TokenIdent, sqlparser.TokenKeyword:
		p.pos++
		return t.Val, nil
	default:
		return "", fmt.Errorf("distsql: expected value, got %q in %q", t.Val, p.sql)
	}
}

// names parses t1 [, t2 ...] (CREATE BROADCAST TABLE RULE's argument).
func (p *parser) names() ([]string, error) {
	var out []string
	for {
		n, err := p.ident()
		if err != nil {
			return nil, err
		}
		out = append(out, n)
		if !p.accept(",") {
			return out, nil
		}
	}
}

// parenNames parses (t1, t2, ...): a binding group, a rule's RESOURCES.
func (p *parser) parenNames() ([]string, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	out, err := p.names()
	if err != nil {
		return nil, err
	}
	return out, p.expect(")")
}

// properties parses k = v, ...) after an opening parenthesis, keys
// lower-cased: a rule's PROPERTIES and the INJECT FAULT property list.
func (p *parser) properties() (map[string]string, error) {
	out := map[string]string{}
	for {
		k, err := p.value()
		if err != nil {
			return nil, err
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		out[strings.ToLower(k)] = v
		if !p.accept(",") {
			return out, p.expect(")")
		}
	}
}

// ruleSpec parses the AutoTable definition shared by CREATE/ALTER SHARDING
// TABLE RULE and RESHARD TABLE:
//
//	<t> (
//	    RESOURCES(ds0, ds1),
//	    SHARDING_COLUMN = uid,
//	    TYPE = hash_mod,
//	    PROPERTIES("sharding-count" = 2)
//	)
func (p *parser) ruleSpec() (sharding.AutoTableSpec, error) {
	var spec sharding.AutoTableSpec
	table, err := p.ident()
	if err != nil {
		return spec, err
	}
	spec.LogicTable = table
	if err := p.expect("("); err != nil {
		return spec, err
	}
	for {
		switch p.word() {
		case "RESOURCES":
			p.pos++
			spec.Resources, err = p.parenNames()
		case "SHARDING_COLUMN":
			p.pos++
			if err = p.expect("="); err == nil {
				spec.ShardingColumn, err = p.ident()
			}
		case "TYPE":
			p.pos++
			if err = p.expect("="); err == nil {
				spec.AlgorithmType, err = p.value()
			}
		case "PROPERTIES":
			p.pos++
			if err = p.expect("("); err == nil {
				spec.Properties, err = p.properties()
			}
		default:
			err = fmt.Errorf("distsql: unexpected rule clause %q in %q", p.cur().Val, p.sql)
		}
		if err != nil {
			return spec, err
		}
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return spec, err
	}
	if len(spec.Resources) == 0 || spec.ShardingColumn == "" || spec.AlgorithmType == "" {
		return spec, fmt.Errorf("distsql: rule for %s needs RESOURCES, SHARDING_COLUMN and TYPE", table)
	}
	return spec, nil
}

// faultSpec is INJECT FAULT's argument: <source> [(k = v, ...)].
type faultSpec struct {
	source string
	props  map[string]string
}

func (p *parser) faultSpec() (faultSpec, error) {
	src, err := p.ident()
	f := faultSpec{source: src}
	if err == nil && p.accept("(") {
		f.props, err = p.properties()
	}
	return f, err
}

// assignment is SET VARIABLE's argument: <name> = <value>.
type assignment struct{ name, value string }

func (p *parser) assignment() (assignment, error) {
	name, err := p.ident()
	if err != nil {
		return assignment{}, err
	}
	if err := p.expect("="); err != nil {
		return assignment{}, err
	}
	v, err := p.value()
	return assignment{strings.ToLower(name), v}, err
}

// digestOrder parses SHOW STATEMENT DIGESTS' optional ORDER BY
// total_time|calls (default total_time).
func (p *parser) digestOrder() (string, error) {
	if !p.accept("ORDER") {
		return "total_time", nil
	}
	if err := p.expect("BY"); err != nil {
		return "", err
	}
	col, err := p.ident()
	if err != nil {
		return "", err
	}
	switch col = strings.ToLower(col); col {
	case "total_time", "calls":
		return col, nil
	}
	return "", fmt.Errorf("distsql: ORDER BY wants total_time or calls, got %q", col)
}

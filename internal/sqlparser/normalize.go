package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"shardingsphere/internal/sqltypes"
)

// Normalized is the shape-level canonical form of a DML statement: every
// operand literal is replaced by a parameter slot, so statements that differ
// only in operand values share one Key; an ordinal (ORDER BY 1) is structure
// and stays. The kernel's plan cache keys on it (paper Sections VI-A..VI-C
// run once per shape instead of once per statement).
type Normalized struct {
	// Key is the canonical SQL with every operand literal rewritten to "?".
	// Placeholders are numbered left to right, matching the parser's
	// Placeholder.Index assignment, so parsing Key yields an AST whose
	// parameter slots line up with Args.
	Key string
	// Args holds one slot per "?" in Key, in order.
	Args []ArgSlot
	// ForUpdate reports a trailing FOR UPDATE clause (locking reads inside
	// XA transactions must bypass the plan cache).
	ForUpdate bool
}

// ArgSlot is one parameter slot of a normalized statement: either a
// literal captured from the original text or a reference to one of the
// caller's bind arguments.
type ArgSlot struct {
	// Arg is the index into the caller's bind arguments, or -1 when the
	// slot was a literal in the original text.
	Arg int
	// Lit is the captured literal value (valid when Arg < 0).
	Lit sqltypes.Value
}

// BindArgs materializes the positional argument list for the normalized
// statement: captured literals fill their own slots, the caller's bind
// arguments fill the rest.
func (n *Normalized) BindArgs(args []sqltypes.Value) ([]sqltypes.Value, error) {
	out := make([]sqltypes.Value, len(n.Args))
	for i, slot := range n.Args {
		if slot.Arg < 0 {
			out[i] = slot.Lit
			continue
		}
		if slot.Arg >= len(args) {
			return nil, &ParseError{Pos: 0, Msg: fmt.Sprintf("missing bind argument %d", slot.Arg+1), SQL: n.Key}
		}
		out[i] = args[slot.Arg]
	}
	return out, nil
}

// normalizable holds the statement classes the plan cache serves. DDL,
// TCL, XA, SET, SHOW and DESCRIBE bypass normalization entirely: they are
// rare, their literals are structural (VARCHAR(64) is part of the shape),
// and caching them would only dilute the cache.
var normalizable = map[string]bool{
	"SELECT": true, "INSERT": true, "UPDATE": true, "DELETE": true,
}

// Normalize canonicalizes one DML statement without parsing it: a single
// lexer pass rewrites operand literals to ordered parameter slots and emits the
// cache key. It reports ok=false for statements that must bypass the plan
// cache (DDL, TCL, management commands, unlexable input); the caller falls
// back to a full Parse. A text already in canonical form is its own Key,
// not a copy of it.
func Normalize(sql string) (*Normalized, bool) {
	l := &lexer{src: sql}
	first, err := l.next()
	if err != nil || first.Type != TokenKeyword || !normalizable[first.Val] {
		return nil, false
	}
	// The key is a prefix of sql until what is written differs; then b.
	var b strings.Builder
	matched := 0
	write := func(parts ...string) {
		for _, s := range parts {
			if b.Len() == 0 && strings.HasPrefix(sql[matched:], s) {
				matched += len(s)
				continue
			}
			if b.Len() == 0 {
				b.Grow(len(sql) + len(s))
				b.WriteString(sql[:matched])
			}
			b.WriteString(s)
		}
	}
	write(first.Val)
	n := &Normalized{}
	nArg := 0
	prevKeyword := first.Val
	// itemStart is 1 where an ORDER BY / GROUP BY item starts (after BY, a
	// comma at its level, "(" or "+") and -1 behind an odd number of "-",
	// which the parser folds into the literal. An integer at 1, or a zero at
	// -1 (-0 is 0), is an ordinal to the parser and stays: lifting it would
	// make it a constant.
	byList, itemStart, depth := false, 0, 0
	for {
		t, err := l.next()
		if err != nil {
			return nil, false
		}
		if t.Type == TokenEOF {
			break
		}
		start := 0
		switch t.Type {
		case TokenInt:
			if itemStart == 1 || itemStart == -1 && strings.Trim(t.Val, "0") == "" {
				write(" ", t.Val)
				break
			}
			v, err := strconv.ParseInt(t.Val, 10, 64)
			if err != nil {
				return nil, false
			}
			n.Args = append(n.Args, ArgSlot{Arg: -1, Lit: sqltypes.NewInt(v)})
			write(" ?")
		case TokenFloat:
			v, err := strconv.ParseFloat(t.Val, 64)
			if err != nil {
				return nil, false
			}
			n.Args = append(n.Args, ArgSlot{Arg: -1, Lit: sqltypes.NewFloat(v)})
			write(" ?")
		case TokenString:
			n.Args = append(n.Args, ArgSlot{Arg: -1, Lit: sqltypes.NewString(t.Val)})
			write(" ?")
		case TokenPlaceholder:
			n.Args = append(n.Args, ArgSlot{Arg: nArg})
			nArg++
			write(" ?")
		case TokenKeyword:
			switch {
			case t.Val == "UPDATE" && prevKeyword == "FOR":
				n.ForUpdate = true
			case t.Val == "BY" && (prevKeyword == "ORDER" || prevKeyword == "GROUP"):
				byList, start = true, 1
			case t.Val == "HAVING" || t.Val == "LIMIT" || t.Val == "FOR":
				byList = false
			}
			prevKeyword = t.Val
			write(" ", t.Val)
		case TokenIdent:
			// Re-quote identifiers that need it (quoted idents lex to their
			// inner text) so the key re-parses to the same AST.
			if needsQuote(t.Val) {
				write(" `", strings.ReplaceAll(t.Val, "`", "``"), "`")
			} else {
				write(" ", t.Val)
			}
		default: // TokenOp
			switch t.Val {
			case "(":
				depth, start = depth+1, itemStart
			case ")":
				depth--
			case "+":
				start = itemStart
			case "-":
				start = -itemStart
			case ",":
				if byList && depth == 0 {
					start = 1
				}
			}
			write(" ", t.Val)
		}
		itemStart = start
		if t.Type != TokenKeyword {
			prevKeyword = ""
		}
	}
	n.Key = sql[:matched]
	if b.Len() > 0 {
		n.Key = b.String()
	}
	return n, true
}

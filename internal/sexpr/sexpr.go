// Package sexpr provides the reader for the compiler's source language:
// a Lisp-syntax surface over simplified C semantics, as described in
// Section 3 of the paper. The reader produces a tree of Nodes; all
// semantic processing happens in the compiler package.
package sexpr

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"unicode"
)

// Kind discriminates Node variants.
type Kind uint8

const (
	// KSymbol is an identifier such as foo or +.
	KSymbol Kind = iota
	// KInt is an integer literal.
	KInt
	// KFloat is a floating-point literal.
	KFloat
	// KString is a quoted string literal.
	KString
	// KList is a parenthesized list.
	KList
)

// Node is one element of the parse tree. It takes 64 bytes: a list's
// elements, one text field shared by symbols and strings, one numeric
// word shared by integer and float literals, and a 32-bit position.
type Node struct {
	// List holds a list's elements.
	List []*Node
	// Text is a symbol's name or a string literal's (unescaped) value.
	Text string
	// num is an integer literal's value, or a float literal's IEEE 754
	// bits; read it with Int or Float.
	num uint64
	// Line and Col are the 1-based source position of the node's first
	// byte (0 for nodes built by the constructors below). Positions past
	// math.MaxInt32 saturate.
	Line, Col int32
	Kind      Kind
}

// Sym constructs a symbol node (for tests and code generators).
func Sym(s string) *Node { return &Node{Kind: KSymbol, Text: s} }

// IntNode constructs an integer literal node.
func IntNode(i int64) *Node { return &Node{Kind: KInt, num: uint64(i)} }

// FloatNode constructs a float literal node.
func FloatNode(f float64) *Node { return &Node{Kind: KFloat, num: math.Float64bits(f)} }

// ListNode constructs a list node.
func ListNode(items ...*Node) *Node { return &Node{Kind: KList, List: items} }

// Int returns an integer literal's value (0 for any other kind).
func (n *Node) Int() int64 {
	if n.Kind != KInt {
		return 0
	}
	return int64(n.num)
}

// Float returns a float literal's value (0 for any other kind).
func (n *Node) Float() float64 {
	if n.Kind != KFloat {
		return 0
	}
	return math.Float64frombits(n.num)
}

// IsSym reports whether the node is the given symbol.
func (n *Node) IsSym(s string) bool { return n != nil && n.Kind == KSymbol && n.Text == s }

// Head returns the leading symbol of a list node, or "".
func (n *Node) Head() string {
	if n == nil || n.Kind != KList || len(n.List) == 0 || n.List[0].Kind != KSymbol {
		return ""
	}
	return n.List[0].Text
}

// Pos formats the node's source position.
func (n *Node) Pos() string { return fmt.Sprintf("%d:%d", n.Line, n.Col) }

// String renders the node back to source form.
func (n *Node) String() string { return string(n.AppendText(nil)) }

// AppendText appends the node's source form to dst and returns the
// extended buffer.
func (n *Node) AppendText(dst []byte) []byte {
	switch n.Kind {
	case KSymbol:
		dst = append(dst, n.Text...)
	case KInt:
		dst = strconv.AppendInt(dst, n.Int(), 10)
	case KFloat:
		start := len(dst)
		dst = strconv.AppendFloat(dst, n.Float(), 'g', -1, 64)
		if !bytes.ContainsAny(dst[start:], ".eE") {
			dst = append(dst, ".0"...)
		}
	case KString:
		// Escape only what the reader unescapes, so every string reads
		// back as itself.
		dst = append(dst, '"')
		for i := 0; i < len(n.Text); i++ {
			switch c := n.Text[i]; c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\n':
				dst = append(dst, `\n`...)
			case '\t':
				dst = append(dst, `\t`...)
			default:
				dst = append(dst, c)
			}
		}
		dst = append(dst, '"')
	case KList:
		dst = append(dst, '(')
		for i, c := range n.List {
			if i > 0 {
				dst = append(dst, ' ')
			}
			dst = c.AppendText(dst)
		}
		dst = append(dst, ')')
	}
	return dst
}

// SyntaxError reports a reader failure with position information.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sexpr: %d:%d: %s", e.Line, e.Col, e.Msg)
}

// DefaultMaxDepth is the list-nesting bound applied by Parse. The reader
// is recursive-descent, so nesting depth translates directly into Go
// stack frames; an adversarial source of matched parens must hit this
// bound long before the runtime's stack limit does.
const DefaultMaxDepth = 10_000

// Limits bounds the work the reader will perform on untrusted input.
// Zero values leave the corresponding dimension unlimited (Parse still
// applies DefaultMaxDepth so nesting can never exhaust the stack).
type Limits struct {
	MaxBytes int // source length in bytes
	MaxNodes int // total parse-tree nodes
	MaxDepth int // list nesting depth
}

// LimitError reports that parsing stopped because a Limits bound was
// exceeded. It is a typed error so services can map it to a 4xx response
// rather than treating it as an internal failure.
type LimitError struct {
	What      string // "bytes", "nodes", or "depth"
	Limit     int
	Line, Col int
}

func (e *LimitError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("sexpr: %d:%d: source exceeds %s limit %d", e.Line, e.Col, e.What, e.Limit)
	}
	return fmt.Sprintf("sexpr: source exceeds %s limit %d", e.What, e.Limit)
}

// lexer is the state of one parse. Nodes come from slab, a chunk of
// the parse's own Node array; the children of every list still open
// wait on the shared stack kids, and a list that closes takes an
// exact-size child slice from ptrs. A parse therefore allocates per
// chunk, not per node.
type lexer struct {
	src   string
	pos   int
	line  int
	col   int
	lim   Limits
	nodes int
	depth int

	slab []Node
	kids []*Node
	ptrs []*Node
}

// A slab or ptrs chunk holds about one entry per bytesPerNode bytes of
// the source still unread, within [minChunk, maxChunk].
const (
	bytesPerNode = 3
	minChunk     = 32
	maxChunk     = 512
)

func (l *lexer) limitErr(what string, limit int) error {
	return &LimitError{What: what, Limit: limit, Line: l.line, Col: l.col}
}

func (l *lexer) errf(format string, args ...any) error {
	return &SyntaxError{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

// grow returns the next allocation size for a request of at least n,
// sized from the source still unread: a small program gets small
// chunks, a large one full ones.
func (l *lexer) grow(n int) int {
	size := min(max((len(l.src)-l.pos)/bytesPerNode, minChunk), maxChunk)
	return max(size, n)
}

// node takes the next Node from the slab.
func (l *lexer) node(kind Kind, line, col int) *Node {
	if len(l.slab) == 0 {
		l.slab = make([]Node, l.grow(1))
	}
	n := &l.slab[0]
	l.slab = l.slab[1:]
	n.Kind, n.Line, n.Col = kind, pos32(line), pos32(col)
	return n
}

// pos32 narrows a position to a Node's field, saturating.
func pos32(p int) int32 { return int32(min(p, math.MaxInt32)) }

// popKids moves the children pushed since mark into an exact-size slice
// (nil when there are none) and pops them.
func (l *lexer) popKids(mark int) []*Node {
	k := len(l.kids) - mark
	if k == 0 {
		return nil
	}
	if len(l.ptrs) < k {
		l.ptrs = make([]*Node, l.grow(k))
	}
	out := l.ptrs[:k:k]
	l.ptrs = l.ptrs[k:]
	copy(out, l.kids[mark:])
	l.kids = l.kids[:mark]
	return out
}

func (l *lexer) peek() (byte, bool) {
	if l.pos >= len(l.src) {
		return 0, false
	}
	return l.src[l.pos], true
}

func (l *lexer) next() (byte, bool) {
	c, ok := l.peek()
	if !ok {
		return 0, false
	}
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c, true
}

func (l *lexer) skipSpace() {
	for {
		c, ok := l.peek()
		if !ok {
			return
		}
		if c == ';' {
			for {
				c, ok = l.next()
				if !ok || c == '\n' {
					break
				}
			}
			continue
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.next()
			continue
		}
		return
	}
}

func isSymbolByte(c byte) bool {
	if c == '(' || c == ')' || c == ';' || c == '"' {
		return false
	}
	return !unicode.IsSpace(rune(c))
}

// Parse reads all top-level forms from src. Nesting is bounded by
// DefaultMaxDepth; use ParseLimits to tighten (or widen) the bounds.
func Parse(src string) ([]*Node, error) {
	return ParseLimits(src, Limits{})
}

// ParseLimits reads all top-level forms from src under the given bounds.
// A violated bound returns a *LimitError. Whatever MaxDepth says, the
// effective nesting bound never exceeds DefaultMaxDepth: the reader's
// recursion must stay well inside the goroutine stack.
func ParseLimits(src string, lim Limits) ([]*Node, error) {
	if lim.MaxDepth <= 0 || lim.MaxDepth > DefaultMaxDepth {
		lim.MaxDepth = DefaultMaxDepth
	}
	if lim.MaxBytes > 0 && len(src) > lim.MaxBytes {
		return nil, &LimitError{What: "bytes", Limit: lim.MaxBytes}
	}
	l := &lexer{src: src, line: 1, col: 1, lim: lim}
	for {
		l.skipSpace()
		if _, ok := l.peek(); !ok {
			return l.popKids(0), nil
		}
		n, err := l.parseNode()
		if err != nil {
			return nil, err
		}
		l.kids = append(l.kids, n)
	}
}

// ParseOne reads exactly one form from src.
func ParseOne(src string) (*Node, error) {
	forms, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(forms) != 1 {
		return nil, fmt.Errorf("sexpr: expected one form, found %d", len(forms))
	}
	return forms[0], nil
}

func (l *lexer) parseNode() (*Node, error) {
	l.skipSpace()
	line, col := l.line, l.col
	c, ok := l.peek()
	if !ok {
		return nil, l.errf("unexpected end of input")
	}
	l.nodes++
	if l.lim.MaxNodes > 0 && l.nodes > l.lim.MaxNodes {
		return nil, l.limitErr("nodes", l.lim.MaxNodes)
	}
	switch {
	case c == '(':
		l.depth++
		if l.depth > l.lim.MaxDepth {
			return nil, l.limitErr("depth", l.lim.MaxDepth)
		}
		l.next()
		mark := len(l.kids)
		for {
			l.skipSpace()
			c, ok := l.peek()
			if !ok {
				return nil, l.errf("unterminated list opened at %d:%d", line, col)
			}
			if c == ')' {
				l.next()
				l.depth--
				n := l.node(KList, line, col)
				n.List = l.popKids(mark)
				return n, nil
			}
			child, err := l.parseNode()
			if err != nil {
				return nil, err
			}
			l.kids = append(l.kids, child)
		}
	case c == ')':
		return nil, l.errf("unexpected ')'")
	case c == '"':
		l.next()
		start := l.pos
		// esc holds the unescaped text once the first escape is seen;
		// until then the literal is a slice of src.
		var esc []byte
		for {
			c, ok := l.next()
			if !ok {
				return nil, l.errf("unterminated string")
			}
			if c == '"' {
				break
			}
			if c == '\\' {
				if esc == nil {
					esc = append([]byte{}, l.src[start:l.pos-1]...)
				}
				e, ok := l.next()
				if !ok {
					return nil, l.errf("unterminated escape")
				}
				switch e {
				case 'n':
					e = '\n'
				case 't':
					e = '\t'
				}
				esc = append(esc, e)
				continue
			}
			if esc != nil {
				esc = append(esc, c)
			}
		}
		n := l.node(KString, line, col)
		if esc != nil {
			n.Text = string(esc)
		} else {
			n.Text = l.src[start : l.pos-1]
		}
		return n, nil
	default:
		start := l.pos
		for {
			c, ok := l.peek()
			if !ok || !isSymbolByte(c) {
				break
			}
			l.next()
		}
		tok := l.src[start:l.pos]
		if tok == "" {
			return nil, l.errf("invalid character %q", c)
		}
		if !looksNumeric(tok) {
			n := l.node(KSymbol, line, col)
			n.Text = tok
			return n, nil
		}
		if isInteger(tok) {
			// Out of int64 range, an integer reads as a float.
			if i, err := strconv.ParseInt(tok, 10, 64); err == nil {
				n := l.node(KInt, line, col)
				n.num = uint64(i)
				return n, nil
			}
		}
		if f, err := strconv.ParseFloat(tok, 64); err == nil {
			n := l.node(KFloat, line, col)
			n.num = math.Float64bits(f)
			return n, nil
		}
		return nil, l.errf("malformed number %q", tok)
	}
}

// looksNumeric reports whether tok begins like a number (so that symbols
// such as +, -, and 1+foo are handled sensibly). Only these tokens are
// tried as numbers.
func looksNumeric(tok string) bool {
	i := 0
	if tok[0] == '+' || tok[0] == '-' {
		if len(tok) == 1 {
			return false
		}
		i = 1
	}
	return tok[i] >= '0' && tok[i] <= '9' || (tok[i] == '.' && i+1 < len(tok) && tok[i+1] >= '0' && tok[i+1] <= '9')
}

// isInteger reports whether tok is an optional sign and decimal digits,
// the only shape strconv.ParseInt accepts in base 10. Checking first
// spares every float literal a failed ParseInt and its error value.
func isInteger(tok string) bool {
	if tok[0] == '+' || tok[0] == '-' {
		tok = tok[1:]
	}
	for i := 0; i < len(tok); i++ {
		if tok[i] < '0' || tok[i] > '9' {
			return false
		}
	}
	return tok != ""
}

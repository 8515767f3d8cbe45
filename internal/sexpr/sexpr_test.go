package sexpr

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseAtoms(t *testing.T) {
	cases := []struct {
		src  string
		kind Kind
	}{
		{"foo", KSymbol}, {"+", KSymbol}, {"<=", KSymbol}, {"-x", KSymbol},
		{"42", KInt}, {"-7", KInt}, {"+3", KInt},
		{"1.5", KFloat}, {"-0.25", KFloat}, {"1e3", KFloat}, {".5", KFloat}, {"-.5", KFloat},
		{`"hi there"`, KString},
	}
	for _, c := range cases {
		n, err := ParseOne(c.src)
		if err != nil {
			t.Errorf("ParseOne(%q): %v", c.src, err)
			continue
		}
		if n.Kind != c.kind {
			t.Errorf("ParseOne(%q).Kind = %v, want %v", c.src, n.Kind, c.kind)
		}
	}
}

func TestParseValues(t *testing.T) {
	n, _ := ParseOne("-42")
	if n.Int() != -42 {
		t.Errorf("int value %d", n.Int())
	}
	n, _ = ParseOne("2.5e2")
	if n.Float() != 250 {
		t.Errorf("float value %v", n.Float())
	}
	n, _ = ParseOne(`"a\nb\"c"`)
	if n.Text != "a\nb\"c" {
		t.Errorf("string value %q", n.Text)
	}
}

func TestParseNesting(t *testing.T) {
	n, err := ParseOne("(a (b 1 2.5) (c) ())")
	if err != nil {
		t.Fatal(err)
	}
	if n.Head() != "a" || len(n.List) != 4 {
		t.Fatalf("structure: %s", n)
	}
	if n.List[1].Head() != "b" || len(n.List[1].List) != 3 {
		t.Errorf("inner list: %s", n.List[1])
	}
	if len(n.List[3].List) != 0 {
		t.Errorf("empty list: %s", n.List[3])
	}
}

func TestComments(t *testing.T) {
	forms, err := Parse("; leading\n(a 1) ; trailing\n(b 2)\n;end")
	if err != nil {
		t.Fatal(err)
	}
	if len(forms) != 2 || forms[0].Head() != "a" || forms[1].Head() != "b" {
		t.Errorf("comment parse: %v", forms)
	}
}

func TestPositions(t *testing.T) {
	src := "; header comment\n" +
		`(sym 42 -1.5 "a\"b" (x)) ; trailing` + "\n" +
		`  "s\n" tail` + "\n" +
		"\"two\nlines\" 7 ()"
	forms, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(forms) != 6 {
		t.Fatalf("got %d forms, want 6", len(forms))
	}
	list := forms[0]
	cases := []struct {
		name      string
		n         *Node
		kind      Kind
		line, col int32
	}{
		{"list after comment", list, KList, 2, 1},
		{"symbol", list.List[0], KSymbol, 2, 2},
		{"int", list.List[1], KInt, 2, 6},
		{"float", list.List[2], KFloat, 2, 9},
		{"escaped string", list.List[3], KString, 2, 14},
		{"list after escaped string", list.List[4], KList, 2, 21},
		{"symbol in nested list", list.List[4].List[0], KSymbol, 2, 22},
		{"string after trailing comment", forms[1], KString, 3, 3},
		{"symbol after escaped string", forms[2], KSymbol, 3, 9},
		{"multi-line string", forms[3], KString, 4, 1},
		{"int after multi-line string", forms[4], KInt, 5, 8},
		{"empty list", forms[5], KList, 5, 10},
	}
	for _, c := range cases {
		if c.n.Kind != c.kind || c.n.Line != c.line || c.n.Col != c.col {
			t.Errorf("%s: kind %v at %d:%d, want kind %v at %d:%d", c.name, c.n.Kind, c.n.Line, c.n.Col, c.kind, c.line, c.col)
		}
	}
}

// TestParseErrors pins the type, fields and text of every reader
// rejection, positions included.
func TestParseErrors(t *testing.T) {
	syntax := func(line, col int, msg string) error { return &SyntaxError{Line: line, Col: col, Msg: msg} }
	limit := func(what string, limit, line, col int) error {
		return &LimitError{What: what, Limit: limit, Line: line, Col: col}
	}
	cases := []struct {
		src  string
		lim  Limits
		want error
		text string
	}{
		{"(a", Limits{}, syntax(1, 3, "unterminated list opened at 1:1"), "sexpr: 1:3: unterminated list opened at 1:1"},
		{"(a\n  (b c", Limits{}, syntax(2, 7, "unterminated list opened at 2:3"), "sexpr: 2:7: unterminated list opened at 2:3"},
		{")", Limits{}, syntax(1, 1, "unexpected ')'"), "sexpr: 1:1: unexpected ')'"},
		{"(a))", Limits{}, syntax(1, 4, "unexpected ')'"), "sexpr: 1:4: unexpected ')'"},
		{`"unterminated`, Limits{}, syntax(1, 14, "unterminated string"), "sexpr: 1:14: unterminated string"},
		{`(a "b\`, Limits{}, syntax(1, 7, "unterminated escape"), "sexpr: 1:7: unterminated escape"},
		{"(1.2.3)", Limits{}, syntax(1, 7, `malformed number "1.2.3"`), `sexpr: 1:7: malformed number "1.2.3"`},
		{"; c\n  -9x", Limits{}, syntax(2, 6, `malformed number "-9x"`), `sexpr: 2:6: malformed number "-9x"`},
		{"(a \v)", Limits{}, syntax(1, 4, `invalid character '\v'`), `sexpr: 1:4: invalid character '\v'`},
		{"(a b c)", Limits{MaxBytes: 3}, limit("bytes", 3, 0, 0), "sexpr: source exceeds bytes limit 3"},
		{"(a b\n c d e)", Limits{MaxNodes: 4}, limit("nodes", 4, 2, 4), "sexpr: 2:4: source exceeds nodes limit 4"},
		{"(a (b (c)))", Limits{MaxDepth: 2}, limit("depth", 2, 1, 7), "sexpr: 1:7: source exceeds depth limit 2"},
	}
	for _, c := range cases {
		_, err := ParseLimits(c.src, c.lim)
		if !reflect.DeepEqual(err, c.want) {
			t.Errorf("ParseLimits(%q) = %#v, want %#v", c.src, err, c.want)
			continue
		}
		if err.Error() != c.text {
			t.Errorf("ParseLimits(%q) error text %q, want %q", c.src, err.Error(), c.text)
		}
	}
	if _, err := ParseOne("(a) (b)"); err == nil || err.Error() != "sexpr: expected one form, found 2" {
		t.Errorf("ParseOne of two forms = %v", err)
	}
}

func TestHelpers(t *testing.T) {
	n := ListNode(Sym("set"), Sym("x"), IntNode(1))
	if !n.List[0].IsSym("set") || n.Head() != "set" {
		t.Error("IsSym/Head")
	}
	if IntNode(3).Head() != "" {
		t.Error("Head on non-list")
	}
}

// randomTree builds a random node tree for the round-trip property.
func randomTree(r *rand.Rand, depth int) *Node {
	if depth == 0 || r.Intn(3) == 0 {
		switch r.Intn(3) {
		case 0:
			syms := []string{"a", "foo", "+", "-", "<=", "set!", "x1"}
			return Sym(syms[r.Intn(len(syms))])
		case 1:
			return IntNode(r.Int63n(2000) - 1000)
		default:
			return FloatNode(float64(r.Int63n(1000)) / 8)
		}
	}
	n := &Node{Kind: KList}
	for i := r.Intn(4); i > 0; i-- {
		n.List = append(n.List, randomTree(r, depth-1))
	}
	return n
}

// stripPos zeroes positions for structural comparison.
func stripPos(n *Node) {
	n.Line, n.Col = 0, 0
	for _, c := range n.List {
		stripPos(c)
	}
}

func TestPrintParseRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		tree := randomTree(r, 4)
		back, err := ParseOne(tree.String())
		if err != nil {
			t.Fatalf("round trip parse of %q: %v", tree, err)
		}
		stripPos(back)
		stripPos(tree)
		if !reflect.DeepEqual(tree, back) {
			t.Fatalf("round trip mismatch:\nsrc  %s\nback %s", tree, back)
		}
	}
}

func TestFloatPrintKeepsTag(t *testing.T) {
	check := func(k int64) bool {
		f := FloatNode(float64(k))
		s := f.String()
		return strings.ContainsAny(s, ".eE")
	}
	if err := quick.Check(check, nil); err != nil {
		t.Errorf("integral floats must print with a marker: %v", err)
	}
}

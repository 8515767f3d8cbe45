package sexpr

import (
	"strings"
	"testing"
)

// FuzzParse hammers the reader with arbitrary bytes: it must never
// panic, always honor its limits, and round-trip anything it accepts:
// the forms rendered with String must reparse to forms that render to
// the same bytes.
func FuzzParse(f *testing.F) {
	f.Add("(program p (def (main) (set x 1)))")
	f.Add("(+ 1 2.5 \"str\\n\" sym)")
	f.Add(strings.Repeat("(", 300))
	f.Add("\"unterminated")
	f.Add("; comment only\n")
	f.Add("(\"\x80\r\x00\")")
	f.Fuzz(func(t *testing.T, src string) {
		forms, err := ParseLimits(src, Limits{MaxBytes: 1 << 16, MaxNodes: 10_000, MaxDepth: 100})
		if err != nil {
			return
		}
		rendered := render(forms)
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("round-trip reparse failed: %v\nrendered: %q", err, rendered)
		}
		if back := render(again); back != rendered {
			t.Fatalf("round trip changed the forms\nrendered: %q\nreparsed: %q", rendered, back)
		}
	})
}

// render writes forms one per line, as String renders them.
func render(forms []*Node) string {
	var b strings.Builder
	for _, fm := range forms {
		b.WriteString(fm.String())
		b.WriteByte('\n')
	}
	return b.String()
}

package oracle

import (
	"testing"

	"pcoup/internal/isa"
)

// TestSanity pins the interpreter against a hand-computed program.
func TestSanity(t *testing.T) {
	src := `
(program p
  (global a (array int 4) (init 1 2 3 4))
  (global out (array int 4))
  (def (main)
    (set s 0)
    (for (i 0 4) (set s (+ s (aref a i))))
    (aset out 0 s)
    (if (> s 5) (aset out 1 1) (aset out 1 2))
    (unroll (k 0 3) (aset out 2 (+ (aref out 2) k)))
    (forall-static (i 0 4) (aset a i (* i i)))))`
	got, err := Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if got["out"][0].AsInt() != 10 || got["out"][1].AsInt() != 1 || got["out"][2].AsInt() != 3 {
		t.Errorf("oracle out = %v", got["out"])
	}
	for i := int64(0); i < 4; i++ {
		if got["a"][i].AsInt() != i*i {
			t.Errorf("oracle a[%d] = %v", i, got["a"][i])
		}
	}
}

// TestProcedures exercises macro expansion, parameter binding, and
// (return ...), plus fork's sequential reference semantics.
func TestProcedures(t *testing.T) {
	src := `
(program p
  (global out (array int 4))
  (def (sq x) (return (* x x)))
  (def (store i v) (aset out i v))
  (def (main)
    (aset out 0 (sq 7))
    (store 1 (+ (sq 2) 1))
    (fork (aset out 2 42))
    (join)
    (aset out 3 (aref out 2))))`
	got, err := Run(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{49, 5, 42, 42}
	for i, w := range want {
		if got["out"][i].AsInt() != w {
			t.Errorf("out[%d] = %v, want %d", i, got["out"][i], w)
		}
	}
}

// TestNonTermination makes sure a spinning while loop is cut off rather
// than pinning the interpreter.
func TestNonTermination(t *testing.T) {
	src := `
(program p
  (global out int)
  (def (main)
    (set x 1)
    (while (> x 0) (set x (+ x 1)))))`
	if _, err := Run(src); err == nil {
		t.Fatal("non-terminating program did not error")
	}
}

// TestCompare pins the image comparison both differential checkers use:
// hidden cells are skipped, a global absent from the layout is reported
// as missing, and the first differing word is reported in name order.
func TestCompare(t *testing.T) {
	want := map[string][]isa.Value{
		"a":     {isa.Int(1), isa.Int(2)},
		"b":     {isa.Int(3)},
		"_lock": {isa.Int(9)},
	}
	data := []isa.DataSegment{{Name: "a", Addr: 0}, {Name: "b", Addr: 2}}
	mem := []isa.Value{isa.Int(1), isa.Int(2), isa.Int(3)}
	read := func(addr int64) isa.Value { return mem[addr] }
	if d := Compare(want, data, read); d != nil {
		t.Fatalf("equal images diverge: %+v", d)
	}

	mem[1], mem[2] = isa.Int(7), isa.Int(8)
	d := Compare(want, data, read)
	if d == nil || d.Missing || d.Global != "a" || d.Index != 1 || !d.Got.Equal(isa.Int(7)) || !d.Want.Equal(isa.Int(2)) {
		t.Fatalf("divergence = %+v, want a[1] = 7 vs 2", d)
	}

	d = Compare(map[string][]isa.Value{"gone": {isa.Int(0)}}, data, read)
	if d == nil || !d.Missing || d.Global != "gone" {
		t.Fatalf("missing global reported as %+v", d)
	}
}

package compiler

import (
	"strings"
	"testing"

	"pcoup/internal/isa"
	"pcoup/internal/machine"
	"pcoup/internal/sexpr"
)

func envFor(t *testing.T, src string) *env {
	t.Helper()
	forms, err := sexpr.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(forms, machine.Baseline(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConstEval(t *testing.T) {
	e := envFor(t, `
(program p
  (const n 6)
  (const half (/ n 2))
  (global a (array int 16))
  (def (main) (set x 1)))`)
	cases := []struct {
		src  string
		want isa.Value
	}{
		{"42", isa.Int(42)},
		{"2.5", isa.Float(2.5)},
		{"n", isa.Int(6)},
		{"half", isa.Int(3)},
		{"(+ n 1 2)", isa.Int(9)},
		{"(* n half)", isa.Int(18)},
		{"(- n)", isa.Int(-6)},
		{"(shl 1 n)", isa.Int(64)},
		{"(< half n)", isa.Int(1)},
		{"(float n)", isa.Int(6)}, // float is not a constEval operator...
	}
	for _, c := range cases[:9] {
		n, err := sexpr.ParseOne(c.src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.constEval(n, nil)
		if err != nil {
			t.Errorf("constEval(%s): %v", c.src, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("constEval(%s) = %v, want %v", c.src, got, c.want)
		}
	}
	// (addr a) resolves the global's address.
	n, _ := sexpr.ParseOne("(addr a)")
	got, err := e.constEval(n, nil)
	if err != nil || got.AsInt() != e.globals["a"].addr {
		t.Errorf("(addr a) = %v, %v", got, err)
	}
	// Scoped bindings shadow program constants.
	n, _ = sexpr.ParseOne("(+ n k)")
	got, err = e.constEval(n, map[string]isa.Value{"k": isa.Int(100)})
	if err != nil || got.AsInt() != 106 {
		t.Errorf("scoped constEval = %v, %v", got, err)
	}
	// Non-constant expressions are rejected.
	for _, bad := range []string{"x", "(aref a 0)", "q", "(+ n q)"} {
		n, _ := sexpr.ParseOne(bad)
		if _, err := e.constEval(n, nil); err == nil {
			t.Errorf("constEval accepted %q", bad)
		}
	}
}

func TestGlobalLayout(t *testing.T) {
	e := envFor(t, `
(program p
  (global a (array int 10))
  (global b float)
  (global c (array float 3) (init 1.0 2.0))
  (def (main) (set x 1)))`)
	a, b, c := e.globals["a"], e.globals["b"], e.globals["c"]
	if a.addr != dataBase {
		t.Errorf("first global at %d, want %d", a.addr, dataBase)
	}
	if b.addr != a.addr+10 || c.addr != b.addr+1 {
		t.Errorf("layout: a=%d b=%d c=%d", a.addr, b.addr, c.addr)
	}
	if e.memWords() <= c.addr+3 {
		t.Errorf("memWords %d too small", e.memWords())
	}
	if len(c.init) != 2 || c.init[0].AsFloat() != 1.0 {
		t.Errorf("init values: %v", c.init)
	}
	if c.typ != TFloat || a.typ != TInt {
		t.Error("types wrong")
	}
}

func TestSyncCellAllocation(t *testing.T) {
	e := envFor(t, `(program p (global g int) (def (main) (set x 1)))`)
	before := e.nextAddr
	addr := e.newSyncCell("fk")
	if addr != before || e.nextAddr != before+1 {
		t.Errorf("sync cell at %d, next %d", addr, e.nextAddr)
	}
	name := aliasName(e, e.cellAlias(addr))
	if !strings.HasPrefix(name, "_fk") {
		t.Errorf("cell alias %q", name)
	}
	if !e.globals[name].empty {
		t.Error("sync cell must start empty")
	}
	if e.cellAlias(9999) != 0 {
		t.Error("cellAlias found a ghost")
	}
}

func TestGenNameUnique(t *testing.T) {
	e := envFor(t, `(program p (def (main) (set x 1)))`)
	a := e.genName("main", "f")
	b := e.genName("main", "f")
	if a == b {
		t.Errorf("names collide: %q", a)
	}
}

func TestBareTopLevelForms(t *testing.T) {
	// Programs without the (program ...) wrapper are accepted.
	e := envFor(t, `(global g int) (def (main) (set g 1))`)
	if e.progName != "program" {
		t.Errorf("default name %q", e.progName)
	}
	if _, ok := e.globals["g"]; !ok {
		t.Error("bare global missing")
	}
}

func TestConstApplyTypeRules(t *testing.T) {
	n, _ := sexpr.ParseOne("(+ 1 2)")
	// Mixed int/float promotes.
	v, err := constApply(n, "+", []isa.Value{isa.Int(1), isa.Float(2.5)})
	if err != nil || !v.IsFloat || v.F != 3.5 {
		t.Errorf("mixed + = %v, %v", v, err)
	}
	// Comparisons yield ints even for float operands.
	v, err = constApply(n, "<", []isa.Value{isa.Float(1), isa.Float(2)})
	if err != nil || v.IsFloat || v.I != 1 {
		t.Errorf("float < = %v, %v", v, err)
	}
	// Int-only ops reject floats.
	if _, err := constApply(n, "%", []isa.Value{isa.Float(1), isa.Int(2)}); err == nil {
		t.Error("%% accepted float")
	}
	// not / abs forms.
	v, _ = constApply(n, "not", []isa.Value{isa.Int(0)})
	if v.I != 1 {
		t.Errorf("not 0 = %v", v)
	}
	v, _ = constApply(n, "abs", []isa.Value{isa.Float(-2)})
	if v.F != 2 {
		t.Errorf("abs -2 = %v", v)
	}
	// Unary minus on each type.
	v, _ = constApply(n, "-", []isa.Value{isa.Int(5)})
	if v.I != -5 {
		t.Errorf("neg = %v", v)
	}
	v, _ = constApply(n, "-", []isa.Value{isa.Float(5)})
	if v.F != -5 {
		t.Errorf("fneg = %v", v)
	}
}

func TestDeclErrors(t *testing.T) {
	bads := []string{
		`(program p (global a (array int 0)) (def (main) (set x 1)))`,
		`(program p (global a (array bogus 4)) (def (main) (set x 1)))`,
		`(program p (global a int (frobnicate)) (def (main) (set x 1)))`,
		`(program p (const k (aref q 0)) (def (main) (set x 1)))`,
		`(program p (def main (set x 1)))`,
		`(program p (whatisthis 3) (def (main) (set x 1)))`,
		`(program p (def (f 3) (set x 1)) (def (main) (set x 1)))`,
		`(program p (def (f) (set x 1)) (def (f) (set x 2)) (def (main) (set x 1)))`,
	}
	for _, src := range bads {
		forms, err := sexpr.Parse(src)
		if err != nil {
			continue // reader-level rejection also counts
		}
		if _, err := newEnv(forms, machine.Baseline(), Options{}); err == nil {
			t.Errorf("accepted invalid program:\n%s", src)
		}
	}
}

func TestStringers(t *testing.T) {
	// Mode, Type, Src, Instr, Fn string forms (used in diagnostics).
	if Unrestricted.String() != "unrestricted" || SingleCluster.String() != "single" {
		t.Error("Mode.String")
	}
	if TInt.String() != "int" || TFloat.String() != "float" {
		t.Error("Type.String")
	}
	fn := newFn("demo")
	v := fn.newVReg(TFloat)
	b := fn.newBlock()
	tgt := fn.newBlock()
	b.Instrs = append(b.Instrs,
		&Instr{Op: isa.OpFMul, Dst: v, Srcs: []Src{vsrc(v), csrc(isa.Float(2))}, Type: TFloat},
		&Instr{Op: isa.OpLoad, Dst: v, Alias: 1, Offset: 8, Sync: isa.SyncConsume, Type: TFloat},
		&Instr{Op: isa.OpBf, Srcs: []Src{vsrc(v)}, Target: tgt},
		&Instr{Op: isa.OpFork, ForkSeg: 2},
	)
	out := fn.String()
	for _, want := range []string{"fn demo", "fmul", "#2.0", "ld.cons", "@8[g1]", "->b1", "->seg2"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fn.String missing %q:\n%s", want, out)
		}
	}
}

func TestListExprForms(t *testing.T) {
	// Exercise addr/float/int/abs in runtime (non-constant) positions.
	src := `
(program p
  (global a (array float 4) (init 1.5 -2.5 3.0 4.0))
  (global ptr (array int 2))
  (global out (array float 4))
  (def (main)
    (aset ptr 0 (addr a))
    (set i 1)
    (aset out 0 (abs (aref a i)))
    (aset out 1 (float (int (aref a 2))))
    (set j (int (aref a 3)))
    (aset out 2 (float (* j 2)))))`
	prog, diags := compileOK(t, src, Options{})
	_, _ = prog, diags
}

// aliasName returns the name of the global an Instr.Alias names, "" for
// the unknown alias.
func aliasName(e *env, alias int32) string {
	if alias == 0 {
		return ""
	}
	return e.globalOrder[alias-1]
}

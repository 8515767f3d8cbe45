package isa

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"pcoup/internal/machine"
)

func TestValueRoundTrip(t *testing.T) {
	intCheck := func(i int64) bool {
		v, err := ParseValue(Int(i).String())
		return err == nil && !v.IsFloat && v.I == i
	}
	if err := quick.Check(intCheck, nil); err != nil {
		t.Errorf("int round trip: %v", err)
	}
	floatCheck := func(f float64) bool {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true // not representable in program text; skip
		}
		v, err := ParseValue(Float(f).String())
		return err == nil && v.IsFloat && v.F == f
	}
	if err := quick.Check(floatCheck, nil); err != nil {
		t.Errorf("float round trip: %v", err)
	}
}

func TestValueTagPreserved(t *testing.T) {
	// A float that happens to be integral must parse back as a float.
	v, err := ParseValue(Float(3).String())
	if err != nil || !v.IsFloat || v.F != 3 {
		t.Errorf("Float(3) round trip = %+v, %v", v, err)
	}
}

func TestValueConversions(t *testing.T) {
	if Int(7).AsFloat() != 7.0 {
		t.Error("Int.AsFloat")
	}
	if Float(7.9).AsInt() != 7 {
		t.Error("Float.AsInt should truncate")
	}
	if !Int(1).Truthy() || Int(0).Truthy() {
		t.Error("int Truthy")
	}
	if !Float(0.5).Truthy() || Float(0).Truthy() {
		t.Error("float Truthy")
	}
	if !Bool(true).Equal(Int(1)) || !Bool(false).Equal(Int(0)) {
		t.Error("Bool")
	}
	if Int(1).Equal(Float(1)) {
		t.Error("Equal must distinguish tags")
	}
}

func TestEvalIntegerOps(t *testing.T) {
	cases := []struct {
		op   Opcode
		a, b int64
		want int64
	}{
		{OpAdd, 3, 4, 7}, {OpSub, 3, 4, -1}, {OpMul, 3, 4, 12},
		{OpDiv, 12, 4, 3}, {OpDiv, 7, 2, 3}, {OpDiv, 7, 0, 0},
		{OpMod, 7, 3, 1}, {OpMod, 7, 0, 0},
		{OpAnd, 6, 3, 2}, {OpOr, 6, 3, 7}, {OpXor, 6, 3, 5},
		{OpShl, 1, 4, 16}, {OpShr, 16, 4, 1},
		{OpSlt, 1, 2, 1}, {OpSlt, 2, 2, 0},
		{OpSle, 2, 2, 1}, {OpSeq, 2, 2, 1}, {OpSne, 2, 2, 0},
		{OpSgt, 3, 2, 1}, {OpSge, 2, 3, 0},
	}
	for _, c := range cases {
		got, err := Eval(c.op, []Value{Int(c.a), Int(c.b)})
		if err != nil {
			t.Errorf("%v(%d,%d): %v", c.op, c.a, c.b, err)
			continue
		}
		if got.IsFloat || got.I != c.want {
			t.Errorf("%v(%d,%d) = %v, want %d", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestEvalUnaryOps(t *testing.T) {
	if v, _ := Eval(OpNeg, []Value{Int(5)}); v.I != -5 {
		t.Errorf("neg = %v", v)
	}
	if v, _ := Eval(OpNot, []Value{Int(0)}); v.I != -1 {
		t.Errorf("not = %v", v)
	}
	if v, _ := Eval(OpFNeg, []Value{Float(2.5)}); v.F != -2.5 {
		t.Errorf("fneg = %v", v)
	}
	if v, _ := Eval(OpFAbs, []Value{Float(-2.5)}); v.F != 2.5 {
		t.Errorf("fabs = %v", v)
	}
	if v, _ := Eval(OpItoF, []Value{Int(3)}); !v.IsFloat || v.F != 3 {
		t.Errorf("itof = %v", v)
	}
	if v, _ := Eval(OpFtoI, []Value{Float(3.7)}); v.IsFloat || v.I != 3 {
		t.Errorf("ftoi = %v", v)
	}
	if v, _ := Eval(OpMov, []Value{Float(1.5)}); !v.IsFloat || v.F != 1.5 {
		t.Errorf("mov must preserve the tag: %v", v)
	}
}

func TestEvalFloatOps(t *testing.T) {
	cases := []struct {
		op   Opcode
		a, b float64
		want float64
	}{
		{OpFAdd, 1.5, 2.25, 3.75}, {OpFSub, 1.5, 2.25, -0.75},
		{OpFMul, 1.5, 2, 3}, {OpFDiv, 3, 2, 1.5},
	}
	for _, c := range cases {
		got, err := Eval(c.op, []Value{Float(c.a), Float(c.b)})
		if err != nil || !got.IsFloat || got.F != c.want {
			t.Errorf("%v(%v,%v) = %v, %v; want %v", c.op, c.a, c.b, got, err, c.want)
		}
	}
	// Float comparisons produce integer 0/1.
	if v, _ := Eval(OpFlt, []Value{Float(1), Float(2)}); v.IsFloat || v.I != 1 {
		t.Errorf("flt = %v", v)
	}
	if v, _ := Eval(OpFge, []Value{Float(1), Float(2)}); v.I != 0 {
		t.Errorf("fge = %v", v)
	}
}

func TestEvalRejectsNonPure(t *testing.T) {
	for _, op := range []Opcode{OpLoad, OpStore, OpJmp, OpBt, OpBf, OpFork, OpHalt} {
		if _, err := Eval(op, nil); err == nil {
			t.Errorf("Eval accepted non-pure opcode %v", op)
		}
	}
	if _, err := Eval(OpAdd, []Value{Int(1)}); err == nil {
		t.Error("Eval accepted wrong operand count")
	}
}

func TestOpcodeMetadata(t *testing.T) {
	for _, op := range Opcodes() {
		if op.String() == "" {
			t.Errorf("opcode %d has no name", op)
		}
		back, err := ParseOpcode(op.String())
		if err != nil || back != op {
			t.Errorf("ParseOpcode(%q) = %v, %v", op.String(), back, err)
		}
		switch op.Unit() {
		case machine.IU, machine.FPU, machine.MEM, machine.BR:
		default:
			t.Errorf("opcode %v has invalid unit %v", op, op.Unit())
		}
	}
	if _, err := ParseOpcode("nosuchop"); err == nil {
		t.Error("ParseOpcode accepted bogus name")
	}
}

func TestEvalDivModByZeroPolicy(t *testing.T) {
	// Integer division by zero yields zero (no trap); float division by
	// zero follows IEEE.
	if v, _ := Eval(OpDiv, []Value{Int(5), Int(0)}); v.I != 0 {
		t.Errorf("div by zero = %v", v)
	}
	v, _ := Eval(OpFDiv, []Value{Float(1), Float(0)})
	if !math.IsInf(v.F, 1) {
		t.Errorf("fdiv by zero = %v, want +Inf", v)
	}
}

func TestSyncFlavorRoundTrip(t *testing.T) {
	for _, s := range []SyncFlavor{SyncNone, SyncWaitFull, SyncConsume, SyncProduce} {
		back, err := ParseSyncFlavor(s.String())
		if err != nil || back != s {
			t.Errorf("sync flavor round trip failed for %v", s)
		}
	}
	if _, err := ParseSyncFlavor("zzz"); err == nil {
		t.Error("ParseSyncFlavor accepted bogus flavor")
	}
}

func TestOpAccessors(t *testing.T) {
	op := &Op{
		Code: OpLoad, Sync: SyncConsume,
		Srcs:   []Operand{Reg(RegRef{1, 2}), ImmInt(5)},
		Dests:  []RegRef{{0, 3}},
		Offset: 100,
	}
	if !op.IsMemory() || op.IsBranch() {
		t.Error("load classification")
	}
	if got := op.SrcRegs(); len(got) != 1 || got[0] != (RegRef{1, 2}) {
		t.Errorf("SrcRegs = %v", got)
	}
	clone := op.Clone()
	clone.Srcs[0] = ImmInt(9)
	clone.Dests[0] = RegRef{5, 5}
	if op.Srcs[0].Kind != OperandReg || op.Dests[0] != (RegRef{0, 3}) {
		t.Error("Clone shares storage")
	}
	br := &Op{Code: OpBt}
	if !br.IsBranch() || br.IsMemory() {
		t.Error("branch classification")
	}
}

func TestProgramValidate(t *testing.T) {
	mk := func() *Program {
		return &Program{
			Name: "p",
			Segments: []*ThreadCode{{
				Name: "main",
				Instrs: []Instruction{
					{Ops: []*Op{
						{Code: OpAdd, Unit: 0, Srcs: []Operand{ImmInt(1), ImmInt(2)}, Dests: []RegRef{{0, 0}}},
					}},
					{Ops: []*Op{nil, {Code: OpHalt, Unit: 1}}},
				},
			}},
			MemWords: 64,
		}
	}
	if err := mk().Validate(4, 2, 2); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}

	p := mk()
	p.Segments[0].Instrs[0].Ops[0].Unit = 3 // tag mismatch with slot
	if err := p.Validate(4, 2, 2); err == nil {
		t.Error("accepted op with mismatched unit tag")
	}

	p = mk()
	p.Segments[0].Instrs[0].Ops[0].Dests = []RegRef{{0, 0}, {1, 0}, {0, 1}}
	if err := p.Validate(4, 2, 2); err == nil {
		t.Error("accepted op exceeding MaxDests")
	}

	p = mk()
	p.Segments[0].Instrs[0].Ops[0].Dests = []RegRef{{7, 0}}
	if err := p.Validate(4, 2, 2); err == nil {
		t.Error("accepted destination in nonexistent cluster")
	}

	p = mk()
	p.Segments[0].Instrs[1].Ops[1] = &Op{Code: OpJmp, Unit: 1, Target: 99}
	if err := p.Validate(4, 2, 2); err == nil {
		t.Error("accepted branch target out of range")
	}

	p = mk()
	p.Segments[0].Instrs[1].Ops[1] = &Op{Code: OpFork, Unit: 1, Target: 5}
	if err := p.Validate(4, 2, 2); err == nil {
		t.Error("accepted fork target out of range")
	}

	p = &Program{Name: "empty"}
	if err := p.Validate(4, 2, 2); err == nil {
		t.Error("accepted program with no segments")
	}

	p = mk()
	p.MemWords = MaxMemWords + 1
	if err := p.Validate(4, 2, 2); err == nil {
		t.Error("accepted memory image over MaxMemWords")
	}

	p = mk()
	p.Segments[0].Instrs[0].Ops[0].Dests = []RegRef{{0, MaxRegIndex + 1}}
	if err := p.Validate(4, 2, 2); err == nil {
		t.Error("accepted register index over MaxRegIndex")
	}

	// Operand counts the opcode does not accept are a typed error, not a
	// panic at issue.
	for _, op := range []*Op{
		{Code: OpAdd, Unit: 1, Srcs: []Operand{ImmInt(3)}, Dests: []RegRef{{0, 0}}},
		{Code: OpBt, Unit: 1, Target: 0},
		{Code: OpStore, Unit: 1, Offset: 8},
		{Code: OpHalt, Unit: 1, Dests: []RegRef{{0, 0}}},
		{Code: numOpcodes, Unit: 1},
	} {
		p = mk()
		p.Segments[0].Instrs[1].Ops[1] = op
		var oe *OperandError
		if err := p.Validate(4, 2, 2); !errors.As(err, &oe) {
			t.Errorf("op %s: Validate = %v, want *OperandError", op, err)
		}
	}
}

func TestSegmentIndexAndTotals(t *testing.T) {
	p := &Program{Segments: []*ThreadCode{{Name: "main"}, {Name: "w"}}}
	if i, ok := p.SegmentIndex("w"); !ok || i != 1 {
		t.Errorf("SegmentIndex = %d, %v", i, ok)
	}
	if _, ok := p.SegmentIndex("zzz"); ok {
		t.Error("SegmentIndex found missing segment")
	}
	p.Segments[0].Instrs = []Instruction{{Ops: []*Op{{Code: OpHalt}, nil}}}
	if got := p.TotalOps(); got != 1 {
		t.Errorf("TotalOps = %d", got)
	}
}

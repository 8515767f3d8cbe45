package isa

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// sampleProgram exercises every operand form: immediates, registers,
// multiple destinations, sync flavors, offsets, branch and fork targets,
// and data segments in both presence states.
func sampleProgram() *Program {
	return &Program{
		Name:     "sample",
		MemWords: 256,
		Data: []DataSegment{
			{Name: "a", Addr: 8, Values: []Value{Int(1), Float(2.5), Int(-3)}, Full: true},
			{Name: "sync", Addr: 16, Values: []Value{Int(0)}, Full: false},
		},
		Segments: []*ThreadCode{
			{
				Name:     "main",
				RegCount: []int{3, 1},
				Instrs: []Instruction{
					{Ops: []*Op{
						{Code: OpAdd, Unit: 0, Srcs: []Operand{Reg(RegRef{0, 1}), ImmInt(4)}, Dests: []RegRef{{0, 2}, {1, 0}}},
						nil,
						{Code: OpLoad, Unit: 2, Sync: SyncConsume, Srcs: []Operand{Reg(RegRef{0, 0})}, Dests: []RegRef{{0, 0}}, Offset: 8},
					}},
					{Ops: []*Op{
						nil, nil, nil,
						{Code: OpStore, Unit: 3, Sync: SyncProduce, Srcs: []Operand{Imm(Float(1.5)), Reg(RegRef{1, 0})}, Offset: 16},
					}},
					{Ops: []*Op{nil, {Code: OpBt, Unit: 1, Srcs: []Operand{Reg(RegRef{0, 2})}, Target: 0}}},
					{Ops: []*Op{nil, {Code: OpFork, Unit: 1, Target: 1}}},
					{Ops: []*Op{nil, {Code: OpHalt, Unit: 1}}},
				},
			},
			{
				Name: "worker",
				Instrs: []Instruction{
					{Ops: []*Op{nil, {Code: OpHalt, Unit: 1}}},
				},
			},
		},
	}
}

func TestTextRoundTrip(t *testing.T) {
	p := sampleProgram()
	var buf bytes.Buffer
	if err := WriteText(&buf, p); err != nil {
		t.Fatal(err)
	}
	back, err := ParseText(&buf)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, buf.String())
	}
	if back.Name != p.Name || back.MemWords != p.MemWords {
		t.Errorf("header mismatch: %q %d", back.Name, back.MemWords)
	}
	if !reflect.DeepEqual(back.Data, p.Data) {
		t.Errorf("data mismatch:\n got %+v\nwant %+v", back.Data, p.Data)
	}
	if len(back.Segments) != len(p.Segments) {
		t.Fatalf("segment count %d, want %d", len(back.Segments), len(p.Segments))
	}
	for si, seg := range p.Segments {
		bseg := back.Segments[si]
		if bseg.Name != seg.Name {
			t.Errorf("segment %d name %q", si, bseg.Name)
		}
		if !reflect.DeepEqual(bseg.RegCount, seg.RegCount) {
			t.Errorf("segment %s regcount %v, want %v", seg.Name, bseg.RegCount, seg.RegCount)
		}
		if len(bseg.Instrs) != len(seg.Instrs) {
			t.Fatalf("segment %s word count %d, want %d", seg.Name, len(bseg.Instrs), len(seg.Instrs))
		}
		for wi := range seg.Instrs {
			for slot, op := range seg.Instrs[wi].Ops {
				var bop *Op
				if slot < len(bseg.Instrs[wi].Ops) {
					bop = bseg.Instrs[wi].Ops[slot]
				}
				if (op == nil) != (bop == nil) {
					t.Errorf("%s word %d slot %d: nil mismatch", seg.Name, wi, slot)
					continue
				}
				if op == nil {
					continue
				}
				if !reflect.DeepEqual(*op, *bop) {
					t.Errorf("%s word %d slot %d:\n got %+v\nwant %+v", seg.Name, wi, slot, *bop, *op)
				}
			}
		}
	}
}

func TestParseTextErrors(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"no segments", ".program x\n"},
		{"op outside word", ".segment m\n0 halt <-\n"},
		{"word outside segment", ".word\n"},
		{"bad slot", ".segment m\n.word\nxx halt <-\n"},
		{"bad opcode", ".segment m\n.word\n0 zzz <-\n"},
		{"missing arrow", ".segment m\n.word\n0 add c0.r0 c0.r1 #2\n"},
		{"double slot", ".segment m\n.word\n0 halt <-\n0 halt <-\n"},
		{"bad register", ".segment m\n.word\n0 add x0.r1 <- #1 #2\n"},
		{"bad target", ".segment m\n.word\n0 jmp <- ->zz\n"},
		{"bad data addr", ".data a zz full\n.enddata\n.segment m\n.word\n0 halt <-\n"},
		{"regcount outside segment", ".regcount 1 2\n"},
		{"memwords without size", ".memwords\n"},
		{"segment without name", ".segment\n"},
		{"huge slot", ".segment m\n.word\n999999999 halt <-\n"},
	}
	for _, c := range cases {
		if _, err := ParseText(strings.NewReader(c.text)); err == nil {
			t.Errorf("%s: ParseText accepted malformed input", c.name)
		}
	}
}

func TestParseTextIgnoresCommentsAndBlanks(t *testing.T) {
	text := `
; a comment
.program p

.segment main
.word
; mid comment
1 halt <-
`
	p, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if p.Segments[0].Instrs[0].Ops[1].Code != OpHalt {
		t.Error("comment handling corrupted parse")
	}
}

func TestOpStringForms(t *testing.T) {
	op := &Op{Code: OpLoad, Sync: SyncWaitFull, Srcs: []Operand{Reg(RegRef{0, 1})}, Dests: []RegRef{{2, 3}}, Offset: 40}
	s := op.String()
	for _, want := range []string{"ld.wf", "c2.r3", "c0.r1", "@40"} {
		if !strings.Contains(s, want) {
			t.Errorf("op string %q missing %q", s, want)
		}
	}
	br := &Op{Code: OpJmp, TargetLabel: "loop"}
	if !strings.Contains(br.String(), "loop") {
		t.Errorf("branch string %q missing label", br.String())
	}
}

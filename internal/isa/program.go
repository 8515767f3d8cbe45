package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// RegRef names one logical register: a slot in a particular cluster's
// register file. Register sets are per-thread; two threads using the same
// RegRef address distinct physical storage.
type RegRef struct {
	Cluster int
	Index   int
}

func (r RegRef) String() string {
	return "c" + strconv.Itoa(r.Cluster) + ".r" + strconv.Itoa(r.Index)
}

// OperandKind distinguishes register from immediate operands.
type OperandKind int

const (
	// OperandReg reads a register (which must be local to the executing
	// unit's cluster).
	OperandReg OperandKind = iota
	// OperandImm is an immediate value encoded in the operation.
	OperandImm
)

// Operand is one source of an operation.
type Operand struct {
	Kind OperandKind
	Reg  RegRef
	Imm  Value
}

// Reg returns a register operand.
func Reg(r RegRef) Operand { return Operand{Kind: OperandReg, Reg: r} }

// Imm returns an immediate operand.
func Imm(v Value) Operand { return Operand{Kind: OperandImm, Imm: v} }

// ImmInt returns an integer immediate operand.
func ImmInt(i int64) Operand { return Imm(Int(i)) }

func (o Operand) String() string {
	if o.Kind == OperandImm {
		return "#" + o.Imm.String()
	}
	return o.Reg.String()
}

// Op is a single operation occupying one function-unit slot of an
// instruction word.
//
// Memory operations: for OpLoad, Srcs holds the address components (one or
// two registers/immediates that are summed with Offset) and Dests receives
// the loaded value. For OpStore, Srcs[0] is the value to store and the
// remaining sources are the address components.
//
// Branch operations: Target is the branch destination (an instruction
// word index within the thread's code segment) or, for OpFork, the index
// of the code segment to spawn. TargetLabel carries the symbolic name
// until the assembler resolves it.
type Op struct {
	Code   Opcode
	Sync   SyncFlavor
	Srcs   []Operand
	Dests  []RegRef
	Offset int64 // constant added to the effective address of memory ops

	Target      int
	TargetLabel string

	// Unit is the global function-unit slot this operation was scheduled
	// on; assigned by the compiler/assembler.
	Unit int
}

// Clone returns a deep copy of the operation.
func (o *Op) Clone() *Op {
	out := *o
	out.Srcs = append([]Operand(nil), o.Srcs...)
	out.Dests = append([]RegRef(nil), o.Dests...)
	return &out
}

// SrcRegs returns the registers read by the operation.
func (o *Op) SrcRegs() []RegRef {
	var out []RegRef
	for _, s := range o.Srcs {
		if s.Kind == OperandReg {
			out = append(out, s.Reg)
		}
	}
	return out
}

// IsMemory reports whether the operation is a load or store.
func (o *Op) IsMemory() bool { return o.Code == OpLoad || o.Code == OpStore }

// IsBranch reports whether the operation redirects control flow.
func (o *Op) IsBranch() bool { return o.Code == OpJmp || o.Code == OpBt || o.Code == OpBf }

func (o *Op) String() string {
	var b strings.Builder
	b.WriteString(o.Code.String())
	if o.IsMemory() && o.Sync != SyncNone {
		b.WriteString("." + o.Sync.String())
	}
	first := true
	writeSep := func() {
		if first {
			b.WriteByte(' ')
			first = false
		} else {
			b.WriteString(", ")
		}
	}
	for _, d := range o.Dests {
		writeSep()
		b.WriteString(d.String())
	}
	for _, s := range o.Srcs {
		writeSep()
		b.WriteString(s.String())
	}
	if o.IsMemory() {
		writeSep()
		fmt.Fprintf(&b, "@%d", o.Offset)
	}
	if o.Code == OpJmp || o.Code == OpBt || o.Code == OpBf || o.Code == OpFork {
		writeSep()
		if o.TargetLabel != "" {
			b.WriteString(o.TargetLabel)
		} else {
			fmt.Fprintf(&b, "%d", o.Target)
		}
	}
	return b.String()
}

// Instruction is one wide instruction word: at most one operation per
// function unit, indexed by global unit slot. Empty slots are nil.
type Instruction struct {
	Ops []*Op
}

// NumOps returns the number of occupied slots.
func (in *Instruction) NumOps() int {
	n := 0
	for _, op := range in.Ops {
		if op != nil {
			n++
		}
	}
	return n
}

// ThreadCode is the compiled code of one thread: a sequence of wide
// instruction words plus metadata.
type ThreadCode struct {
	Name   string
	Instrs []Instruction
	// RegCount[c] is the number of logical registers the code uses in
	// cluster c (the compiler assumes unbounded registers and reports
	// usage, as in the paper).
	RegCount []int
	// ScheduleLen is the static schedule length in words (diagnostic;
	// equals len(Instrs)).
	ScheduleLen int
}

// DataSegment is a region of the initial memory image.
type DataSegment struct {
	Name   string
	Addr   int64
	Values []Value
	// Full marks the words' presence bits as full at startup (normal
	// data). If false the words start empty (synchronization cells).
	Full bool
}

// Program is a complete compiled program: code segments for every thread
// body (segment 0 is the main thread) and the initial memory image.
type Program struct {
	Name     string
	Segments []*ThreadCode
	Data     []DataSegment
	// MemWords is the total memory size in words the program requires.
	MemWords int64
}

// SegmentIndex returns the index of the named code segment.
func (p *Program) SegmentIndex(name string) (int, bool) {
	for i, s := range p.Segments {
		if s.Name == name {
			return i, true
		}
	}
	return 0, false
}

// TotalOps counts all operations across all segments (static, not
// dynamic).
func (p *Program) TotalOps() int {
	n := 0
	for _, s := range p.Segments {
		for i := range s.Instrs {
			n += s.Instrs[i].NumOps()
		}
	}
	return n
}

// Simulator capacity limits, checked by Validate: registers are
// allocated on demand up to the highest index used, and the memory image
// is allocated whole, so unbounded values would exhaust host memory.
const (
	MaxRegIndex = 1<<20 - 1
	MaxMemWords = 1 << 24
)

// OperandError reports an operation whose source or destination count
// its opcode does not accept.
type OperandError struct {
	Segment string
	Word    int
	Op      string
	Reason  string
}

func (e *OperandError) Error() string {
	return fmt.Sprintf("isa: %s word %d: op %s: %s", e.Segment, e.Word, e.Op, e.Reason)
}

// arity explains why op's operand counts do not fit its opcode, or
// returns "": a fixed-arity opcode takes exactly NumSrcs sources, a
// store at least one (the value stored), and only value-producing
// operations (pure ones and loads) have destinations.
func (op *Op) arity() string {
	info := op.Code.info()
	switch {
	case info.name == "":
		return "undefined opcode"
	case info.nsrc >= 0 && len(op.Srcs) != info.nsrc:
		return fmt.Sprintf("wants %d sources, has %d", info.nsrc, len(op.Srcs))
	case op.Code == OpStore && len(op.Srcs) == 0:
		return "store has no value source"
	case !info.pure && op.Code != OpLoad && len(op.Dests) > 0:
		return fmt.Sprintf("produces no value but has %d destinations", len(op.Dests))
	}
	return ""
}

// Validate checks structural invariants of a compiled program against the
// slot count of the target machine: operations are placed in slots,
// branch/fork targets are in range, and register operands name valid
// clusters.
func (p *Program) Validate(numUnits, numClusters, maxDests int) error {
	if len(p.Segments) == 0 {
		return fmt.Errorf("isa: program %q has no code segments", p.Name)
	}
	if p.MemWords > MaxMemWords {
		return fmt.Errorf("isa: program %q wants %d memory words (> %d)", p.Name, p.MemWords, MaxMemWords)
	}
	for _, seg := range p.Segments {
		for wi := range seg.Instrs {
			word := &seg.Instrs[wi]
			if len(word.Ops) > numUnits {
				return fmt.Errorf("isa: %s word %d has %d slots (> %d units)", seg.Name, wi, len(word.Ops), numUnits)
			}
			for slot, op := range word.Ops {
				if op == nil {
					continue
				}
				if op.Unit != slot {
					return fmt.Errorf("isa: %s word %d slot %d holds op tagged for unit %d", seg.Name, wi, slot, op.Unit)
				}
				if why := op.arity(); why != "" {
					return &OperandError{Segment: seg.Name, Word: wi, Op: op.String(), Reason: why}
				}
				if len(op.Dests) > maxDests {
					return fmt.Errorf("isa: %s word %d: op %s has %d destinations (> %d)", seg.Name, wi, op, len(op.Dests), maxDests)
				}
				for _, d := range op.Dests {
					if d.Cluster < 0 || d.Cluster >= numClusters || d.Index < 0 || d.Index > MaxRegIndex {
						return fmt.Errorf("isa: %s word %d: bad destination %s", seg.Name, wi, d)
					}
				}
				for _, s := range op.Srcs {
					if s.Kind == OperandReg && (s.Reg.Cluster < 0 || s.Reg.Cluster >= numClusters || s.Reg.Index < 0 || s.Reg.Index > MaxRegIndex) {
						return fmt.Errorf("isa: %s word %d: bad source %s", seg.Name, wi, s.Reg)
					}
				}
				switch op.Code {
				case OpJmp, OpBt, OpBf:
					if op.Target < 0 || op.Target > len(seg.Instrs) {
						return fmt.Errorf("isa: %s word %d: branch target %d out of range", seg.Name, wi, op.Target)
					}
				case OpFork:
					if op.Target < 0 || op.Target >= len(p.Segments) {
						return fmt.Errorf("isa: %s word %d: fork target %d out of range", seg.Name, wi, op.Target)
					}
				}
			}
		}
	}
	return nil
}

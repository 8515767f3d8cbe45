package compiler

import (
	"fmt"
	"math"
	"strings"

	"pcoup/internal/isa"
)

// Type is the static type of an expression or virtual register.
type Type uint8

const (
	// TInt is the 64-bit integer type.
	TInt Type = iota
	// TFloat is the 64-bit floating-point type.
	TFloat
)

func (t Type) String() string {
	if t == TFloat {
		return "float"
	}
	return "int"
}

// VReg names a virtual register; 0 is "none". The compiler assumes an
// unbounded register space (as in the paper) and reports peak usage.
type VReg int32

// Src is one operand of an IR instruction: a virtual register or a
// constant. It takes 16 bytes: a constant keeps its integer value or
// its float's IEEE 754 bits in one word, and Const rebuilds the
// isa.Value.
type Src struct {
	bits    uint64
	VReg    VReg
	IsConst bool
	isFloat bool
}

func vsrc(v VReg) Src { return Src{VReg: v} }

func csrc(v isa.Value) Src {
	if v.IsFloat {
		return Src{bits: math.Float64bits(v.F), IsConst: true, isFloat: true}
	}
	return Src{bits: uint64(v.I), IsConst: true}
}

func cint(i int64) Src { return Src{bits: uint64(i), IsConst: true} }

// Const returns a constant source's value (the zero integer for a
// register).
func (s Src) Const() isa.Value {
	if s.isFloat {
		return isa.Float(math.Float64frombits(s.bits))
	}
	return isa.Int(int64(s.bits))
}

func (s Src) String() string {
	if s.IsConst {
		return "#" + s.Const().String()
	}
	return fmt.Sprintf("v%d", s.VReg)
}

// Instr is one IR instruction in three-address form. Control instructions
// (jmp/bt/bf) appear only as block terminators; fork and halt are ordinary
// instructions executed by branch units. It takes 72 bytes.
type Instr struct {
	Srcs []Src
	Op   isa.Opcode
	Dst  VReg // 0 when the instruction produces no value
	Type Type // result type of Dst

	// Memory instruction fields.
	// AddrConst reports that the address is entirely in Offset (no
	// register components), enabling exact alias disambiguation.
	AddrConst bool
	Sync      isa.SyncFlavor // presence-bit discipline
	Offset    int64          // constant part of the effective address
	// Alias is the global the address is within, as its position in
	// declaration order plus one (0: unknown).
	Alias int32

	// Control fields.
	ForkSeg int32  // fork target: the segment's index
	Target  *Block // branch target
}

func (in *Instr) isTerminator() bool {
	switch in.Op {
	case isa.OpJmp, isa.OpBt, isa.OpBf:
		return true
	}
	return false
}

func (in *Instr) String() string {
	var b strings.Builder
	b.WriteString(in.Op.String())
	if in.Sync != isa.SyncNone {
		b.WriteString("." + in.Sync.String())
	}
	if in.Dst != 0 {
		fmt.Fprintf(&b, " v%d <-", in.Dst)
	}
	for _, s := range in.Srcs {
		b.WriteString(" " + s.String())
	}
	if in.Op == isa.OpLoad || in.Op == isa.OpStore {
		fmt.Fprintf(&b, " @%d[g%d]", in.Offset, in.Alias)
	}
	if in.Target != nil {
		fmt.Fprintf(&b, " ->b%d", in.Target.ID)
	}
	if in.Op == isa.OpFork {
		fmt.Fprintf(&b, " ->seg%d", in.ForkSeg)
	}
	return b.String()
}

// Block is a basic block: straight-line instructions with at most one
// terminator (jmp/bt/bf) as the final instruction. When the final
// instruction is a conditional branch (or the block has no terminator),
// control falls through to the next block in layout order.
type Block struct {
	ID     int
	Instrs []*Instr
}

// terminator returns the block's terminator instruction, or nil.
func (b *Block) terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if last.isTerminator() {
		return last
	}
	return nil
}

// Fn is one compiled thread body in IR form.
type Fn struct {
	Name   string
	Blocks []*Block // layout order; fallthrough goes to the next entry
	// nextVReg allocates virtual registers: they are dense, 1 to
	// nextVReg-1, so per-vreg tables are slices indexed by VReg.
	nextVReg VReg
	// vregType records the type of each allocated vreg.
	vregType []Type
}

func newFn(name string) *Fn {
	return &Fn{Name: name, nextVReg: 1, vregType: make([]Type, 1)}
}

func (f *Fn) newVReg(t Type) VReg {
	v := f.nextVReg
	f.nextVReg++
	f.vregType = append(f.vregType, t)
	return v
}

func (f *Fn) typeOf(v VReg) Type { return f.vregType[v] }

func (f *Fn) newBlock() *Block {
	b := &Block{ID: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// succIDs returns the IDs of the blocks control may reach from block
// index i, -1 for none: a branch target first, then the fallthrough.
func (f *Fn) succIDs(i int) (int, int) {
	b := f.Blocks[i]
	next := -1
	if i+1 < len(f.Blocks) {
		next = f.Blocks[i+1].ID
	}
	if term := b.terminator(); term != nil {
		if term.Op == isa.OpJmp {
			return term.Target.ID, -1
		}
		return term.Target.ID, next
	}
	if len(b.Instrs) > 0 && b.Instrs[len(b.Instrs)-1].Op == isa.OpHalt {
		return -1, -1
	}
	return next, -1
}

// String renders the function's IR (debugging aid).
func (f *Fn) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fn %s:\n", f.Name)
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, " b%d:\n", blk.ID)
		for _, in := range blk.Instrs {
			fmt.Fprintf(&b, "   %s\n", in)
		}
	}
	return b.String()
}

// bitset is a fixed-size set of small non-negative integers.
type bitset []uint64

func newBitset(n int) bitset    { return make(bitset, (n+63)/64) }
func (s bitset) has(i int) bool { return s[i>>6]&(1<<(i&63)) != 0 }
func (s bitset) add(i int)      { s[i>>6] |= 1 << (i & 63) }

// crossBlockVRegs returns, indexed by VReg, the vregs that are live
// across a block boundary (live-in to some block). These must reside in
// a stable home cluster between blocks. Liveness is the standard
// backward dataflow over the CFG, on bitsets.
func (f *Fn) crossBlockVRegs() []bool {
	n, nv := len(f.Blocks), int(f.nextVReg)
	words := (nv + 63) / 64
	// One backing array: use, def and live-in sets per block, plus a
	// live-out scratch.
	buf := make(bitset, (3*n+1)*words)
	set := func(k int) bitset { return buf[k*words : (k+1)*words] }
	use := func(i int) bitset { return set(3 * i) }
	def := func(i int) bitset { return set(3*i + 1) }
	liveIn := func(i int) bitset { return set(3*i + 2) }
	out := set(3 * n)
	for i, b := range f.Blocks {
		u, d := use(i), def(i)
		for _, in := range b.Instrs {
			for _, s := range in.Srcs {
				if !s.IsConst && !d.has(int(s.VReg)) {
					u.add(int(s.VReg))
				}
			}
			if in.Dst != 0 {
				d.add(int(in.Dst))
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			clear(out)
			s0, s1 := f.succIDs(i)
			for _, s := range [2]int{s0, s1} {
				if s >= 0 {
					for w, x := range liveIn(s) {
						out[w] |= x
					}
				}
			}
			u, d, in := use(i), def(i), liveIn(i)
			for w := range in {
				x := u[w] | (out[w] &^ d[w])
				if x != in[w] {
					in[w] = x
					changed = true
				}
			}
		}
	}
	cross := make([]bool, nv)
	for i := 0; i < n; i++ {
		in := liveIn(i)
		for v := range cross {
			if in.has(v) {
				cross[v] = true
			}
		}
	}
	return cross
}

// loopBlocks returns, indexed by block ID, the blocks that lie on a CFG
// cycle (used to report the compile-time schedule length of loop
// bodies, Table 3): the blocks of a strongly connected component with
// more than one block, or with an edge to itself. Tarjan's algorithm,
// iterative.
func (f *Fn) loopBlocks() []bool {
	n := len(f.Blocks)
	out := make([]bool, n)
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var stack []int
	type frame struct{ v, next int } // next: successors already walked
	var call []frame
	counter := 0
	succ := func(v, k int) int {
		s0, s1 := f.succIDs(v)
		if k == 0 {
			return s0
		}
		if k == 1 {
			return s1
		}
		return -1
	}
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		call = append(call[:0], frame{v: root})
		index[root], low[root] = counter, counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(call) > 0 {
			fr := &call[len(call)-1]
			v := fr.v
			if fr.next < 2 {
				w := succ(v, fr.next)
				fr.next++
				switch {
				case w < 0:
				case w == v:
					out[v] = true
				case index[w] == unvisited:
					index[w], low[w] = counter, counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{v: w})
				case onStack[w]:
					low[v] = min(low[v], index[w])
				}
				continue
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				low[p] = min(low[p], low[v])
			}
			if low[v] != index[v] {
				continue
			}
			// v roots a component: pop it.
			top := len(stack) - 1
			for stack[top] != v {
				top--
			}
			comp := stack[top:]
			for _, w := range comp {
				onStack[w] = false
				if len(comp) > 1 {
					out[w] = true
				}
			}
			stack = stack[:top]
		}
	}
	return out
}

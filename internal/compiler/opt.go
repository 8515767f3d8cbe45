package compiler

import (
	"math"

	"pcoup/internal/isa"
)

// optimize runs the scalar optimization passes to a fixpoint: static
// evaluation of constant expressions, constant propagation, local common
// subexpression elimination (including redundant loads and store-to-load
// forwarding), copy propagation, branch folding, and dead code
// elimination — the optimizations attributed to the paper's compiler.
// One optimizer serves every function of a build.
func (o *optimizer) optimize(fn *Fn) {
	for round := 0; round < 8; round++ {
		changed := false
		if o.constProp(fn) {
			changed = true
		}
		if o.foldAddrAdds(fn) {
			changed = true
		}
		if o.localCSE(fn) {
			changed = true
		}
		if o.copyProp(fn) {
			changed = true
		}
		if simplifyControl(fn) {
			changed = true
		}
		if o.dce(fn) {
			changed = true
		}
		if !changed {
			return
		}
	}
}

// optimizer holds the passes' per-vreg tables (VRegs are dense per Fn,
// so they are slices indexed by VReg), reused from pass to pass and
// from function to function.
type optimizer struct {
	counts  []int32 // defCounts and dce use counts
	known   []isa.Value
	isKnown []bool
	vals    []isa.Value
	defs    []*Instr
	repl    []VReg
	cse     cseState
}

// newOptimizer returns an optimizer for fns whose per-vreg tables are
// sized once, for the largest function.
func newOptimizer(fns []*Fn) *optimizer {
	vregs := 0
	for _, fn := range fns {
		vregs = max(vregs, int(fn.nextVReg))
	}
	return &optimizer{
		counts:  make([]int32, 0, vregs),
		known:   make([]isa.Value, 0, vregs),
		isKnown: make([]bool, 0, vregs),
		defs:    make([]*Instr, 0, vregs),
		repl:    make([]VReg, 0, vregs),
		cse:     cseState{regHead: make([]int32, 0, vregs)},
	}
}

// vregTable returns s resized to fn's vregs and zeroed.
func vregTable[T any](s []T, fn *Fn) []T {
	n := int(fn.nextVReg)
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// defCounts returns, per vreg, how many instructions define it.
func (o *optimizer) defCounts(fn *Fn) []int32 {
	o.counts = vregTable(o.counts, fn)
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Dst != 0 {
				o.counts[in.Dst]++
			}
		}
	}
	return o.counts
}

// constProp finds single-assignment vregs whose definitions fold to
// constants and substitutes them into all uses. Constant address
// components of memory operations fold into the instruction offset.
func (o *optimizer) constProp(fn *Fn) bool {
	defs := o.defCounts(fn)
	o.known = vregTable(o.known, fn)
	o.isKnown = vregTable(o.isKnown, fn)
	known, isKnown := o.known, o.isKnown
	nknown := 0
	// Iterate to propagate through chains.
	for {
		grew := false
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.Dst == 0 || defs[in.Dst] != 1 || !in.Op.Pure() || isKnown[in.Dst] {
					continue
				}
				vals := o.vals[:0]
				ok := true
				for _, s := range in.Srcs {
					if !s.IsConst && !isKnown[s.VReg] {
						ok = false
						break
					}
					if s.IsConst {
						vals = append(vals, s.Const())
					} else {
						vals = append(vals, known[s.VReg])
					}
				}
				o.vals = vals
				if !ok {
					continue
				}
				v, err := isa.Eval(in.Op, vals)
				if err != nil {
					continue
				}
				known[in.Dst], isKnown[in.Dst] = v, true
				nknown++
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	if nknown == 0 {
		return false
	}
	changed := false
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			for i, s := range in.Srcs {
				if !s.IsConst && isKnown[s.VReg] {
					in.Srcs[i] = csrc(known[s.VReg])
					changed = true
				}
			}
			// Rewrite folded definitions into constant moves so DCE can
			// drop them once unused.
			if in.Dst != 0 && defs[in.Dst] == 1 && in.Op.Pure() && isKnown[in.Dst] &&
				!(isMovOp(in.Op) && len(in.Srcs) == 1 && in.Srcs[0].IsConst) {
				in.Op = movOp(in.Type)
				in.Srcs = []Src{csrc(known[in.Dst])}
				changed = true
			}
			changed = foldMemAddress(in) || changed
		}
	}
	return changed
}

func isMovOp(op isa.Opcode) bool { return op == isa.OpMov || op == isa.OpFMov }

// foldMemAddress moves constant address components of loads/stores into
// the offset field.
func foldMemAddress(in *Instr) bool {
	if in.Op != isa.OpLoad && in.Op != isa.OpStore {
		return false
	}
	start := 0
	if in.Op == isa.OpStore {
		start = 1 // Srcs[0] is the stored value
	}
	changed := false
	kept := in.Srcs[:start]
	for _, s := range in.Srcs[start:] {
		if s.IsConst {
			in.Offset += s.Const().AsInt()
			changed = true
			continue
		}
		kept = append(kept, s)
	}
	in.Srcs = kept
	if len(in.Srcs) == start && !in.AddrConst {
		in.AddrConst = true
		changed = true
	}
	return changed
}

// foldAddrAdds absorbs single-assignment integer additions feeding a
// memory operation's address into the operation itself: the memory units
// perform the arithmetic required for address calculation (base + index +
// offset), as in the paper's machine. Up to two register components are
// allowed per address.
func (o *optimizer) foldAddrAdds(fn *Fn) bool {
	defs := o.defCounts(fn)
	o.defs = vregTable(o.defs, fn)
	defInstr := o.defs
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Dst != 0 && defs[in.Dst] == 1 {
				defInstr[in.Dst] = in
			}
		}
	}
	changed := false
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op != isa.OpLoad && in.Op != isa.OpStore {
				continue
			}
			start := 0
			if in.Op == isa.OpStore {
				start = 1
			}
			for again := true; again; {
				again = false
				regComps := 0
				for _, s := range in.Srcs[start:] {
					if !s.IsConst {
						regComps++
					}
				}
				for i := start; i < len(in.Srcs); i++ {
					s := in.Srcs[i]
					if s.IsConst {
						continue
					}
					d := defInstr[s.VReg]
					if d == nil || d.Op != isa.OpAdd {
						continue
					}
					extra := 0
					for _, ds := range d.Srcs {
						if !ds.IsConst {
							extra++
						}
					}
					if regComps-1+extra > 2 {
						continue
					}
					// Replace the component with the addition's operands.
					repl := append([]Src{}, in.Srcs[:i]...)
					repl = append(repl, d.Srcs...)
					repl = append(repl, in.Srcs[i+1:]...)
					in.Srcs = repl
					changed = true
					again = true
					break
				}
				foldMemAddress(in)
			}
		}
	}
	return changed
}

// srcKey is a source operand as a CSE key component. Two sources have
// equal keys exactly when their printed forms (Src.String) are equal:
// a constant compares by its printed form, so an integer never equals a
// float, -0.0 differs from 0.0, and every NaN equals every other.
type srcKey struct {
	kind uint8 // 1 vreg, 2 int, 3 float, 4 NaN
	bits uint64
}

func keyOf(s Src) srcKey {
	switch {
	case !s.IsConst:
		return srcKey{1, uint64(s.VReg)}
	case !s.isFloat:
		return srcKey{2, s.bits}
	case math.IsNaN(math.Float64frombits(s.bits)):
		return srcKey{4, 0}
	}
	return srcKey{3, s.bits}
}

// cseKey identifies an available expression (op and sources) or memory
// value (alias, offset and address sources).
type cseKey struct {
	op     isa.Opcode
	offset int64
	alias  int32
	n      int32
	s      [2]srcKey
	rest   string // printed form of any sources past the second
}

func makeKey(k cseKey, srcs []Src) cseKey {
	k.n = int32(len(srcs))
	for i, s := range srcs {
		if i < len(k.s) {
			k.s[i] = keyOf(s)
			continue
		}
		k.rest += "," + s.String()
	}
	return k
}

func exprKey(in *Instr) cseKey { return makeKey(cseKey{op: in.Op}, in.Srcs) }

func memKey(in *Instr) cseKey {
	start := 0
	if in.Op == isa.OpStore {
		start = 1
	}
	return makeKey(cseKey{alias: in.Alias, offset: in.Offset}, in.Srcs[start:])
}

// cseEntry is one available expression, loaded value or stored value.
type cseEntry struct {
	key  cseKey
	val  Src  // the stored value (stores)
	reg  VReg // the register holding the value (expressions, loads)
	kind uint8
	dead bool
}

const (
	cseExpr uint8 = iota
	cseLoad
	cseStore
)

// cseLink is one link of a list of entries.
type cseLink struct {
	v     VReg
	entry int32
	next  int32 // index+1 of the next link, 0 at the end
}

// cseState is localCSE's per-block state. Every live entry is in the
// map of its kind; an entry is also on the list of each vreg it reads
// or holds (invalidated when that vreg is redefined) and, for memory
// entries, on its alias's list and the list of all memory entries
// (invalidated by stores, synchronizing loads, forks and halts). Killed
// entries stay on lists until the list is next walked.
type cseState struct {
	entries []cseEntry
	maps    [3]map[cseKey]int32
	regHead []int32 // per vreg: head of its list in links, index+1
	links   []cseLink
	byAlias [][]int32 // by alias (0: unknown)
	allMem  []int32
}

// aliasList returns the list of memory entries of alias a.
func (c *cseState) aliasList(a int32) *[]int32 {
	if int(a) >= len(c.byAlias) {
		c.byAlias = append(c.byAlias, make([][]int32, int(a)+1-len(c.byAlias))...)
	}
	return &c.byAlias[a]
}

func (c *cseState) add(kind uint8, key cseKey, reg VReg, val Src, reads []Src) {
	id := int32(len(c.entries))
	c.entries = append(c.entries, cseEntry{key: key, reg: reg, val: val, kind: kind})
	c.maps[kind][key] = id
	link := func(v VReg) {
		c.links = append(c.links, cseLink{v: v, entry: id, next: c.regHead[v]})
		c.regHead[v] = int32(len(c.links))
	}
	if reg != 0 {
		link(reg)
	}
	for _, s := range reads {
		if !s.IsConst {
			link(s.VReg)
		}
	}
	if kind != cseExpr {
		l := c.aliasList(key.alias)
		*l = append(*l, id)
		c.allMem = append(c.allMem, id)
	}
}

func (c *cseState) kill(id int32) {
	e := &c.entries[id]
	if e.dead {
		return
	}
	e.dead = true
	delete(c.maps[e.kind], e.key)
}

// invalidateReg drops every entry that reads or holds v.
func (c *cseState) invalidateReg(v VReg) {
	for l := c.regHead[v]; l > 0; l = c.links[l-1].next {
		c.kill(c.links[l-1].entry)
	}
	c.regHead[v] = 0
}

// invalidateAlias drops the loaded and stored values of alias (every
// alias when it is 0, unknown) and of the unknown alias.
func (c *cseState) invalidateAlias(alias int32) {
	killAll := func(ids *[]int32) {
		for _, id := range *ids {
			c.kill(id)
		}
		*ids = (*ids)[:0]
	}
	if alias == 0 {
		killAll(&c.allMem)
		return
	}
	killAll(c.aliasList(alias))
	killAll(c.aliasList(0))
}

// reset empties the state for the next block.
func (c *cseState) reset() {
	for i := range c.entries {
		if e := &c.entries[i]; !e.dead {
			delete(c.maps[e.kind], e.key)
		}
	}
	for _, l := range c.links {
		c.regHead[l.v] = 0
	}
	c.entries, c.links, c.allMem = c.entries[:0], c.links[:0], c.allMem[:0]
	for i := range c.byAlias {
		c.byAlias[i] = c.byAlias[i][:0]
	}
}

// localCSE eliminates common subexpressions, redundant loads, and loads
// that can be forwarded from a prior store, within each basic block.
func (o *optimizer) localCSE(fn *Fn) bool {
	c := &o.cse
	c.regHead = vregTable(c.regHead, fn)
	for k := range c.maps {
		if c.maps[k] == nil {
			c.maps[k] = map[cseKey]int32{}
		}
	}
	exprs, loads, stores := c.maps[cseExpr], c.maps[cseLoad], c.maps[cseStore]
	changed := false
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			switch {
			case in.Op == isa.OpLoad && in.Sync == isa.SyncNone && in.Dst != 0:
				key := memKey(in)
				if in.AddrConst {
					if id, ok := stores[key]; ok {
						// Store-to-load forwarding.
						in.Op = movOp(in.Type)
						in.Srcs = []Src{c.entries[id].val}
						in.Alias = 0
						in.AddrConst = false
						in.Offset = 0
						changed = true
						c.invalidateReg(in.Dst)
						continue
					}
				}
				id, found := loads[key]
				if found {
					in.Op = movOp(in.Type)
					in.Srcs = []Src{vsrc(c.entries[id].reg)}
					in.Alias = 0
					in.AddrConst = false
					in.Offset = 0
					changed = true
				}
				c.invalidateReg(in.Dst)
				if !found && in.Op == isa.OpLoad && !selfReferencing(in) {
					c.add(cseLoad, key, in.Dst, Src{}, in.Srcs)
				}
			case in.Op == isa.OpLoad:
				// Synchronizing load: never reused, kills its alias.
				c.invalidateAlias(in.Alias)
				if in.Dst != 0 {
					c.invalidateReg(in.Dst)
				}
			case in.Op == isa.OpStore:
				// Kills every stored value of the alias, this key's too.
				c.invalidateAlias(in.Alias)
				if in.Sync == isa.SyncNone && in.AddrConst {
					c.add(cseStore, memKey(in), 0, in.Srcs[0], in.Srcs[:1])
				}
			case in.Op == isa.OpFork, in.Op == isa.OpHalt:
				c.invalidateAlias(0)
			case in.Dst != 0 && in.Op.Pure():
				key := exprKey(in)
				id, replaced := exprs[key]
				if replaced {
					in.Op = movOp(in.Type)
					in.Srcs = []Src{vsrc(c.entries[id].reg)}
					changed = true
				}
				c.invalidateReg(in.Dst)
				if !replaced && !isMovOp(in.Op) && !selfReferencing(in) {
					c.add(cseExpr, key, in.Dst, Src{}, in.Srcs)
				}
			default:
				if in.Dst != 0 {
					c.invalidateReg(in.Dst)
				}
			}
		}
		c.reset()
	}
	return changed
}

// selfReferencing reports whether the instruction reads its own
// destination register.
func selfReferencing(in *Instr) bool {
	for _, s := range in.Srcs {
		if !s.IsConst && s.VReg == in.Dst {
			return true
		}
	}
	return false
}

// copyProp replaces uses of single-assignment vregs defined by a move
// from another single-assignment vreg.
func (o *optimizer) copyProp(fn *Fn) bool {
	defs := o.defCounts(fn)
	o.repl = vregTable(o.repl, fn)
	repl := o.repl
	found := false
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if isMovOp(in.Op) && in.Dst != 0 && len(in.Srcs) == 1 && !in.Srcs[0].IsConst {
				src := in.Srcs[0].VReg
				if defs[in.Dst] == 1 && defs[src] == 1 {
					repl[in.Dst] = src
					found = true
				}
			}
		}
	}
	if !found {
		return false
	}
	resolve := func(v VReg) VReg {
		for i := 0; i < 64; i++ {
			n := repl[v]
			if n == 0 {
				return v
			}
			v = n
		}
		return v
	}
	changed := false
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			for i, s := range in.Srcs {
				if s.IsConst {
					continue
				}
				if r := resolve(s.VReg); r != s.VReg {
					in.Srcs[i] = vsrc(r)
					changed = true
				}
			}
		}
	}
	return changed
}

// simplifyControl folds constant conditional branches, removes jumps to
// the next block, and prunes unreachable blocks.
func simplifyControl(fn *Fn) bool {
	changed := false
	for i, b := range fn.Blocks {
		term := b.terminator()
		if term == nil {
			continue
		}
		switch term.Op {
		case isa.OpBt, isa.OpBf:
			if len(term.Srcs) == 1 && term.Srcs[0].IsConst {
				taken := term.Srcs[0].Const().Truthy() == (term.Op == isa.OpBt)
				if taken {
					term.Op = isa.OpJmp
					term.Srcs = nil
				} else {
					b.Instrs = b.Instrs[:len(b.Instrs)-1]
				}
				changed = true
			}
		}
		term = b.terminator()
		if term != nil && term.Op == isa.OpJmp && i+1 < len(fn.Blocks) && term.Target == fn.Blocks[i+1] {
			b.Instrs = b.Instrs[:len(b.Instrs)-1]
			changed = true
		}
	}
	// Prune unreachable blocks. Block IDs are layout positions.
	reach := make([]bool, len(fn.Blocks))
	nreach := 0
	var stack []int
	if len(fn.Blocks) > 0 {
		reach[0], nreach = true, 1
		stack = append(stack, 0)
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s0, s1 := fn.succIDs(i)
		for _, s := range [2]int{s0, s1} {
			if s >= 0 && !reach[s] {
				reach[s] = true
				nreach++
				stack = append(stack, s)
			}
		}
	}
	if nreach != len(fn.Blocks) {
		kept := fn.Blocks[:0]
		for i, b := range fn.Blocks {
			if reach[i] {
				kept = append(kept, b)
			}
		}
		clear(fn.Blocks[len(kept):])
		fn.Blocks = kept
		changed = true
	}
	for i, b := range fn.Blocks {
		b.ID = i
	}
	return changed
}

// dce removes pure instructions (and ordinary loads) whose results are
// never used. Synchronizing loads, stores, branches, forks, and halts are
// always preserved.
func (o *optimizer) dce(fn *Fn) bool {
	changed := false
	for {
		o.counts = vregTable(o.counts, fn)
		uses := o.counts
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				for _, s := range in.Srcs {
					if !s.IsConst {
						uses[s.VReg]++
					}
				}
			}
		}
		removed := false
		for _, b := range fn.Blocks {
			kept := b.Instrs[:0]
			for _, in := range b.Instrs {
				dead := false
				if in.Dst != 0 && uses[in.Dst] == 0 {
					if in.Op.Pure() {
						dead = true
					}
					if in.Op == isa.OpLoad && in.Sync == isa.SyncNone {
						dead = true
					}
				}
				if dead {
					removed = true
					continue
				}
				kept = append(kept, in)
			}
			b.Instrs = kept
		}
		if !removed {
			return changed
		}
		changed = true
	}
}

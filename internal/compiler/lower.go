package compiler

import (
	"fmt"
	"sort"

	"pcoup/internal/isa"
	"pcoup/internal/sexpr"
)

// varInfo is a local variable bound to a virtual register.
type varInfo struct {
	reg VReg
	typ Type
}

// frame is one lexical scope: runtime variables and compile-time constant
// bindings (unroll / forall-static indices, constant-valued inline
// arguments).
type frame struct {
	vars   map[string]varInfo
	consts map[string]isa.Value
}

// retSlot captures the (return ...) value during procedure inlining.
type retSlot struct {
	src Src
	typ Type
	set bool
}

// lowerCtx lowers one segment's body to IR.
type lowerCtx struct {
	env  *env
	fn   *Fn
	work *segWork
	cur  *Block

	frames []*frame
	ret    *retSlot // non-nil while inlining a procedure body

	// forkFlags are the completion cells of forks issued so far and not
	// yet joined, in spawn order.
	forkFlags   []int64
	inlineDepth int
}

// maxInlineDepth bounds procedure expansion; procedures are macros, so
// recursion cannot be supported (as in the paper's compiler).
const maxInlineDepth = 64

func (e *env) lowerSegment(w *segWork) (*Fn, error) {
	fn := newFn(w.name)
	lc := &lowerCtx{env: e, fn: fn, work: w}
	lc.pushFrame(&frame{vars: map[string]varInfo{}, consts: w.consts})
	lc.place(&Block{})

	if w.mailboxAddr >= 0 {
		// Runtime forall worker: consume the loop index from the mailbox.
		v := fn.newVReg(TInt)
		lc.emit(&Instr{
			Op: isa.OpLoad, Dst: v, Sync: isa.SyncConsume,
			Offset: w.mailboxAddr, AddrConst: true, Alias: lc.env.cellAlias(w.mailboxAddr),
			Type: TInt,
		})
		lc.bindVar(w.mailboxVar, varInfo{reg: v, typ: TInt})
	}
	if err := lc.stmts(w.body); err != nil {
		return nil, err
	}
	if w.doneAddr >= 0 {
		lc.emit(&Instr{
			Op: isa.OpStore, Sync: isa.SyncProduce,
			Srcs: []Src{cint(1)}, Offset: w.doneAddr, AddrConst: true,
			Alias: lc.env.cellAlias(w.doneAddr),
		})
	}
	lc.emit(&Instr{Op: isa.OpHalt})
	return fn, nil
}

// cellAlias returns the alias (Instr.Alias) of the global owning addr,
// 0 for none (hidden sync cells get their own alias so the scheduler
// orders accesses conservatively).
// Globals take consecutive addresses in declaration order, so their end
// addresses never decrease: the owner is the first global that ends
// past addr, if it starts at or before addr. A size-0 global ends where
// it starts and so is never the owner.
func (e *env) cellAlias(addr int64) int32 {
	i := sort.Search(len(e.globalOrder), func(i int) bool {
		e.aliasProbes++
		g := e.globals[e.globalOrder[i]]
		return g.addr+g.size > addr
	})
	if i < len(e.globalOrder) {
		if g := e.globals[e.globalOrder[i]]; g.addr <= addr {
			return g.alias
		}
	}
	return 0
}

// --- scope helpers ---

func (lc *lowerCtx) pushFrame(f *frame) {
	if f.vars == nil {
		f.vars = map[string]varInfo{}
	}
	if f.consts == nil {
		f.consts = map[string]isa.Value{}
	}
	lc.frames = append(lc.frames, f)
}

func (lc *lowerCtx) popFrame() { lc.frames = lc.frames[:len(lc.frames)-1] }

func (lc *lowerCtx) bindVar(name string, vi varInfo) {
	lc.frames[len(lc.frames)-1].vars[name] = vi
}

// lookup resolves a name to a local variable or compile-time constant.
func (lc *lowerCtx) lookup(name string) (varInfo, isa.Value, int) {
	for i := len(lc.frames) - 1; i >= 0; i-- {
		if vi, ok := lc.frames[i].vars[name]; ok {
			return vi, isa.Value{}, lookupVar
		}
		if v, ok := lc.frames[i].consts[name]; ok {
			return varInfo{}, v, lookupConst
		}
	}
	if v, ok := lc.env.consts[name]; ok {
		return varInfo{}, v, lookupConst
	}
	return varInfo{}, isa.Value{}, lookupMissing
}

const (
	lookupVar = iota
	lookupConst
	lookupMissing
)

// flattenConsts snapshots every visible compile-time binding (for fork
// bodies, which may reference enclosing constants but not runtime
// locals).
func (lc *lowerCtx) flattenConsts() map[string]isa.Value {
	out := map[string]isa.Value{}
	for _, f := range lc.frames {
		for k, v := range f.consts {
			out[k] = v
		}
	}
	return out
}

// --- block helpers ---

func (lc *lowerCtx) place(b *Block) {
	b.ID = len(lc.fn.Blocks)
	lc.fn.Blocks = append(lc.fn.Blocks, b)
	lc.cur = b
}

func (lc *lowerCtx) emit(in *Instr) {
	lc.env.irOps++
	lc.env.unitKinds[in.Op.Unit()] = true
	lc.cur.Instrs = append(lc.cur.Instrs, in)
}

func (lc *lowerCtx) newTemp(t Type) VReg { return lc.fn.newVReg(t) }

// --- statements ---

func (lc *lowerCtx) stmts(nodes []*sexpr.Node) error {
	for i, n := range nodes {
		if err := lc.env.checkLowerBudget(); err != nil {
			return err
		}
		if lc.ret != nil && lc.ret.set {
			return errAt(n, "statement after (return ...)")
		}
		if n.Head() == "return" {
			if err := lc.lowerReturn(n); err != nil {
				return err
			}
			if i != len(nodes)-1 {
				return errAt(n, "(return ...) must be the last statement")
			}
			continue
		}
		if err := lc.stmt(n); err != nil {
			return err
		}
	}
	return nil
}

func (lc *lowerCtx) stmt(n *sexpr.Node) error {
	if n.Kind != sexpr.KList || len(n.List) == 0 {
		return errAt(n, "expected a statement, found %s", n)
	}
	switch n.Head() {
	case "set":
		return lc.lowerSet(n)
	case "let":
		return lc.lowerLet(n)
	case "if":
		return lc.lowerIf(n)
	case "while":
		return lc.lowerWhile(n)
	case "for":
		return lc.lowerFor(n)
	case "unroll":
		return lc.lowerUnroll(n)
	case "begin":
		return lc.stmts(n.List[1:])
	case "aset":
		return lc.lowerAset(n)
	case "fork":
		return lc.lowerFork(n.List[1:], n)
	case "join":
		return lc.lowerJoin(n)
	case "forall-static":
		return lc.lowerForallStatic(n)
	case "forall":
		return lc.lowerForallRuntime(n)
	case "return":
		return errAt(n, "(return ...) outside procedure body")
	default:
		// Procedure call as a statement.
		if fd, ok := lc.env.funcs[n.Head()]; ok {
			_, _, err := lc.inlineCall(fd, n)
			return err
		}
		return errAt(n, "unknown statement %q", n.Head())
	}
}

func (lc *lowerCtx) lowerReturn(n *sexpr.Node) error {
	if lc.ret == nil {
		return errAt(n, "(return ...) outside procedure body")
	}
	if len(n.List) != 2 {
		return errAt(n, "return wants one value")
	}
	src, typ, err := lc.expr(n.List[1])
	if err != nil {
		return err
	}
	lc.ret.src, lc.ret.typ, lc.ret.set = src, typ, true
	return nil
}

// lowerSet handles (set name expr): assignment to a local (creating it on
// first use) or to a scalar global (a store).
func (lc *lowerCtx) lowerSet(n *sexpr.Node) error {
	if len(n.List) != 3 || n.List[1].Kind != sexpr.KSymbol {
		return errAt(n, "set wants (set name expr)")
	}
	name := n.List[1].Text
	mark := lc.fn.nextVReg
	src, typ, err := lc.expr(n.List[2])
	if err != nil {
		return err
	}
	vi, _, kind := lc.lookup(name)
	switch kind {
	case lookupConst:
		return errAt(n, "cannot set compile-time constant %q", name)
	case lookupVar:
		src, err = lc.coerce(n, src, typ, vi.typ)
		if err != nil {
			return err
		}
		if lc.retarget(mark, src, vi.reg) {
			return nil
		}
		lc.emit(&Instr{Op: movOp(vi.typ), Dst: vi.reg, Srcs: []Src{src}, Type: vi.typ})
		return nil
	}
	if g, ok := lc.env.globals[name]; ok {
		if g.size != 1 {
			return errAt(n, "cannot set array %q directly; use aset", name)
		}
		src, err = lc.coerce(n, src, typ, g.typ)
		if err != nil {
			return err
		}
		lc.emit(&Instr{
			Op: isa.OpStore, Srcs: []Src{src},
			Offset: g.addr, AddrConst: true, Alias: g.alias,
		})
		return nil
	}
	// Implicit local declaration.
	v := lc.newTemp(typ)
	lc.bindVar(name, varInfo{reg: v, typ: typ})
	lc.emit(&Instr{Op: movOp(typ), Dst: v, Srcs: []Src{src}, Type: typ})
	return nil
}

// retarget avoids a copy when assigning an expression to a variable: if
// the expression's value is a fresh temporary produced by the last
// instruction of the current block, that instruction writes the variable
// directly. This keeps accumulator updates like (set s (+ s x)) to a
// single operation.
func (lc *lowerCtx) retarget(mark VReg, src Src, dst VReg) bool {
	if src.IsConst || src.VReg < mark || len(lc.cur.Instrs) == 0 {
		return false
	}
	last := lc.cur.Instrs[len(lc.cur.Instrs)-1]
	if last.Dst != src.VReg || last.isTerminator() {
		return false
	}
	last.Dst = dst
	return true
}

func movOp(t Type) isa.Opcode {
	if t == TFloat {
		return isa.OpFMov
	}
	return isa.OpMov
}

func (lc *lowerCtx) lowerLet(n *sexpr.Node) error {
	if len(n.List) < 3 || n.List[1].Kind != sexpr.KList {
		return errAt(n, "let wants (let ((name expr)...) body...)")
	}
	f := &frame{}
	lc.pushFrame(f)
	defer lc.popFrame()
	for _, bind := range n.List[1].List {
		if bind.Kind != sexpr.KList || len(bind.List) != 2 || bind.List[0].Kind != sexpr.KSymbol {
			return errAt(bind, "let binding wants (name expr)")
		}
		src, typ, err := lc.expr(bind.List[1])
		if err != nil {
			return err
		}
		v := lc.newTemp(typ)
		lc.emit(&Instr{Op: movOp(typ), Dst: v, Srcs: []Src{src}, Type: typ})
		f.vars[bind.List[0].Text] = varInfo{reg: v, typ: typ}
	}
	return lc.stmts(n.List[2:])
}

func (lc *lowerCtx) lowerIf(n *sexpr.Node) error {
	if len(n.List) < 3 || len(n.List) > 4 {
		return errAt(n, "if wants (if cond then [else])")
	}
	cond, _, err := lc.expr(n.List[1])
	if err != nil {
		return err
	}
	if cond.IsConst {
		// Fold constant conditions at compile time.
		if cond.Const().Truthy() {
			return lc.stmt(n.List[2])
		}
		if len(n.List) == 4 {
			return lc.stmt(n.List[3])
		}
		return nil
	}
	thenB, endB := &Block{}, &Block{}
	if len(n.List) == 4 {
		elseB := &Block{}
		lc.emit(&Instr{Op: isa.OpBf, Srcs: []Src{cond}, Target: elseB})
		lc.place(thenB)
		if err := lc.stmt(n.List[2]); err != nil {
			return err
		}
		lc.emit(&Instr{Op: isa.OpJmp, Target: endB})
		lc.place(elseB)
		if err := lc.stmt(n.List[3]); err != nil {
			return err
		}
		lc.place(endB)
		return nil
	}
	lc.emit(&Instr{Op: isa.OpBf, Srcs: []Src{cond}, Target: endB})
	lc.place(thenB)
	if err := lc.stmt(n.List[2]); err != nil {
		return err
	}
	lc.place(endB)
	return nil
}

func (lc *lowerCtx) lowerWhile(n *sexpr.Node) error {
	if len(n.List) < 3 {
		return errAt(n, "while wants (while cond body...)")
	}
	header, body, exit := &Block{}, &Block{}, &Block{}
	lc.place(header)
	cond, _, err := lc.expr(n.List[1])
	if err != nil {
		return err
	}
	if cond.IsConst && !cond.Const().Truthy() {
		// while(false): drop the loop; the header's side effects stay.
		lc.place(exit)
		return nil
	}
	if !cond.IsConst {
		lc.emit(&Instr{Op: isa.OpBf, Srcs: []Src{cond}, Target: exit})
	}
	lc.place(body)
	if err := lc.stmts(n.List[2:]); err != nil {
		return err
	}
	lc.emit(&Instr{Op: isa.OpJmp, Target: header})
	lc.place(exit)
	return nil
}

// lowerFor handles (for (v lo hi [step]) body...): v runs from lo while
// v < hi, advancing by step (default 1). Bounds are evaluated once.
func (lc *lowerCtx) lowerFor(n *sexpr.Node) error {
	v, lo, hi, step, body, err := lc.loopParts(n)
	if err != nil {
		return err
	}
	// Automatic unrolling (extension): a counted loop whose trip count is
	// known at compile time and small enough expands like (unroll ...),
	// turning its body into straight-line code the scheduler can pack.
	if lim := lc.env.opts.AutoUnroll; lim > 0 && lo.IsConst && hi.IsConst && step.IsConst && !assignsVar(body, v) {
		stepN := step.Const().AsInt()
		if stepN > 0 {
			trips := (hi.Const().AsInt() - lo.Const().AsInt() + stepN - 1) / stepN
			if trips >= 0 && trips <= int64(lim) {
				for i := lo.Const().AsInt(); i < hi.Const().AsInt(); i += stepN {
					lc.pushFrame(&frame{consts: map[string]isa.Value{v: isa.Int(i)}})
					err := lc.stmts(body)
					lc.popFrame()
					if err != nil {
						return err
					}
				}
				return nil
			}
		}
	}
	f := &frame{}
	lc.pushFrame(f)
	defer lc.popFrame()

	iv := lc.newTemp(TInt)
	f.vars[v] = varInfo{reg: iv, typ: TInt}
	lc.emit(&Instr{Op: isa.OpMov, Dst: iv, Srcs: []Src{lo}, Type: TInt})
	// Hoist a non-constant bound into a register.
	hiSrc := hi
	if !hi.IsConst {
		hv := lc.newTemp(TInt)
		lc.emit(&Instr{Op: isa.OpMov, Dst: hv, Srcs: []Src{hi}, Type: TInt})
		hiSrc = vsrc(hv)
	}
	header, bodyB, exit := &Block{}, &Block{}, &Block{}
	lc.place(header)
	cond := lc.newTemp(TInt)
	lc.emit(&Instr{Op: isa.OpSlt, Dst: cond, Srcs: []Src{vsrc(iv), hiSrc}, Type: TInt})
	lc.emit(&Instr{Op: isa.OpBf, Srcs: []Src{vsrc(cond)}, Target: exit})
	lc.place(bodyB)
	if err := lc.stmts(body); err != nil {
		return err
	}
	lc.emit(&Instr{Op: isa.OpAdd, Dst: iv, Srcs: []Src{vsrc(iv), step}, Type: TInt})
	lc.emit(&Instr{Op: isa.OpJmp, Target: header})
	lc.place(exit)
	return nil
}

// lowerUnroll handles (unroll (v lo hi [step]) body...): the loop is
// fully expanded at compile time with v bound to each constant value
// ("loops must be unrolled by hand" in the paper — unroll is the
// mechanical form of that hand expansion).
func (lc *lowerCtx) lowerUnroll(n *sexpr.Node) error {
	v, lo, hi, step, body, err := lc.loopParts(n)
	if err != nil {
		return err
	}
	if !lo.IsConst || !hi.IsConst || !step.IsConst {
		return errAt(n, "unroll bounds must be compile-time constants")
	}
	stepN := step.Const().AsInt()
	if stepN == 0 {
		return errAt(n, "unroll step must be non-zero")
	}
	count := 0
	for i := lo.Const().AsInt(); i < hi.Const().AsInt(); i += stepN {
		if count++; count > 1_000_000 {
			return errAt(n, "unroll expansion too large")
		}
		lc.pushFrame(&frame{consts: map[string]isa.Value{v: isa.Int(i)}})
		err := lc.stmts(body)
		lc.popFrame()
		if err != nil {
			return err
		}
	}
	return nil
}

// assignsVar reports whether any statement in the trees assigns name
// (used to keep automatic unrolling conservative: an assigned loop
// variable cannot become a compile-time constant).
func assignsVar(nodes []*sexpr.Node, name string) bool {
	for _, n := range nodes {
		if n == nil || n.Kind != sexpr.KList {
			continue
		}
		if n.Head() == "set" && len(n.List) >= 2 && n.List[1].IsSym(name) {
			return true
		}
		if assignsVar(n.List, name) {
			return true
		}
	}
	return false
}

// loopParts parses the (v lo hi [step]) loop head shared by for/unroll/
// forall variants.
func (lc *lowerCtx) loopParts(n *sexpr.Node) (v string, lo, hi, step Src, body []*sexpr.Node, err error) {
	if len(n.List) < 3 || n.List[1].Kind != sexpr.KList || len(n.List[1].List) < 3 {
		err = errAt(n, "%s wants (%s (var lo hi [step]) body...)", n.Head(), n.Head())
		return
	}
	head := n.List[1].List
	if head[0].Kind != sexpr.KSymbol {
		err = errAt(n, "loop variable must be a symbol")
		return
	}
	v = head[0].Text
	var t Type
	if lo, t, err = lc.expr(head[1]); err != nil {
		return
	}
	if t != TInt {
		err = errAt(head[1], "loop bound must be an int")
		return
	}
	if hi, t, err = lc.expr(head[2]); err != nil {
		return
	}
	if t != TInt {
		err = errAt(head[2], "loop bound must be an int")
		return
	}
	step = cint(1)
	if len(head) == 4 {
		if step, t, err = lc.expr(head[3]); err != nil {
			return
		}
		if t != TInt {
			err = errAt(head[3], "loop step must be an int")
			return
		}
	}
	body = n.List[2:]
	return
}

// lowerAset handles (aset A idx val [sync]).
func (lc *lowerCtx) lowerAset(n *sexpr.Node) error {
	if len(n.List) < 4 || len(n.List) > 5 {
		return errAt(n, "aset wants (aset array index value [sync])")
	}
	if n.List[1].Kind != sexpr.KSymbol {
		return errAt(n, "aset array must be a global name")
	}
	g, ok := lc.env.globals[n.List[1].Text]
	if !ok {
		return errAt(n, "unknown global %q", n.List[1].Text)
	}
	idx, it, err := lc.expr(n.List[2])
	if err != nil {
		return err
	}
	if it != TInt {
		return errAt(n.List[2], "array index must be an int")
	}
	val, vt, err := lc.expr(n.List[3])
	if err != nil {
		return err
	}
	val, err = lc.coerce(n, val, vt, g.typ)
	if err != nil {
		return err
	}
	sync := isa.SyncNone
	if len(n.List) == 5 {
		switch {
		case n.List[4].IsSym("produce"):
			sync = isa.SyncProduce
		case n.List[4].IsSym("waitfull"):
			sync = isa.SyncWaitFull
		default:
			return errAt(n.List[4], "store sync must be produce or waitfull")
		}
	}
	in := &Instr{Op: isa.OpStore, Sync: sync, Srcs: []Src{val}, Alias: g.alias}
	if idx.IsConst {
		in.Offset = g.addr + idx.Const().AsInt()
		in.AddrConst = true
	} else {
		in.Offset = g.addr
		in.Srcs = append(in.Srcs, idx)
	}
	lc.emit(in)
	return nil
}

// lowerFork compiles (fork body...) — the body becomes a separately
// compiled segment running concurrently with this thread. Fork bodies may
// reference globals and compile-time constants, not the parent's runtime
// locals (threads communicate through memory, as in the paper).
func (lc *lowerCtx) lowerFork(body []*sexpr.Node, n *sexpr.Node) error {
	if len(body) == 0 {
		return errAt(n, "fork wants a body")
	}
	flag := lc.env.newSyncCell("fk")
	name := lc.env.genName(lc.work.name, "f")
	lc.env.nextRotation++
	seg := int32(len(lc.env.segs))
	lc.env.segs = append(lc.env.segs, segWork{
		name: name, body: body, consts: lc.flattenConsts(),
		doneAddr: flag, mailboxAddr: -1, rotation: lc.env.nextRotation,
	})
	lc.forkFlags = append(lc.forkFlags, flag)
	lc.emit(&Instr{Op: isa.OpFork, ForkSeg: seg})
	return nil
}

// lowerJoin waits (via consuming loads of completion cells) for every
// fork issued so far by this segment.
func (lc *lowerCtx) lowerJoin(n *sexpr.Node) error {
	if len(n.List) != 1 {
		return errAt(n, "join takes no arguments")
	}
	lc.joinFlags(lc.forkFlags)
	lc.forkFlags = nil
	return nil
}

func (lc *lowerCtx) joinFlags(flags []int64) {
	for _, flag := range flags {
		d := lc.newTemp(TInt)
		lc.emit(&Instr{
			Op: isa.OpLoad, Dst: d, Sync: isa.SyncConsume,
			Offset: flag, AddrConst: true, Alias: lc.env.cellAlias(flag), Type: TInt,
		})
	}
}

// lowerForallStatic expands (forall-static (v lo hi) body...) into one
// fork per iteration with v bound to a compile-time constant, followed by
// a join of exactly those forks.
func (lc *lowerCtx) lowerForallStatic(n *sexpr.Node) error {
	v, lo, hi, step, body, err := lc.loopParts(n)
	if err != nil {
		return err
	}
	if !lo.IsConst || !hi.IsConst || !step.IsConst {
		return errAt(n, "forall-static bounds must be compile-time constants")
	}
	mark := len(lc.forkFlags)
	stepN := step.Const().AsInt()
	if stepN <= 0 {
		return errAt(n, "forall-static step must be positive")
	}
	for i := lo.Const().AsInt(); i < hi.Const().AsInt(); i += stepN {
		lc.pushFrame(&frame{consts: map[string]isa.Value{v: isa.Int(i)}})
		err := lc.lowerFork(body, n)
		lc.popFrame()
		if err != nil {
			return err
		}
	}
	lc.joinFlags(lc.forkFlags[mark:])
	lc.forkFlags = lc.forkFlags[:mark]
	return nil
}

// lowerForallRuntime handles (forall (v lo hi) body...) with bounds known
// only at runtime. The iteration space is partitioned over K worker
// segments (K = number of arithmetic clusters, giving static load
// balance in single-cluster mode); each spawned worker thread receives
// one index through a produce/consume mailbox and signals one completion
// through a shared done cell, which the parent consumes (hi-lo) times.
func (lc *lowerCtx) lowerForallRuntime(n *sexpr.Node) error {
	v, lo, hi, step, body, err := lc.loopParts(n)
	if err != nil {
		return err
	}
	if step.IsConst && step.Const().AsInt() != 1 {
		return errAt(n, "forall supports only step 1")
	}
	k := len(lc.env.cfg.ArithClusters())
	if k < 1 {
		k = 1
	}
	done := lc.env.newSyncCell("dn")
	doneAlias := lc.env.cellAlias(done)

	// Hoist bounds.
	loV := lc.newTemp(TInt)
	lc.emit(&Instr{Op: isa.OpMov, Dst: loV, Srcs: []Src{lo}, Type: TInt})
	hiV := lc.newTemp(TInt)
	lc.emit(&Instr{Op: isa.OpMov, Dst: hiV, Srcs: []Src{hi}, Type: TInt})

	consts := lc.flattenConsts()
	for r := 0; r < k; r++ {
		mb := lc.env.newSyncCell("mb")
		name := lc.env.genName(lc.work.name, fmt.Sprintf("w%d_", r))
		seg := int32(len(lc.env.segs))
		lc.env.segs = append(lc.env.segs, segWork{
			name: name, body: body, consts: consts,
			doneAddr: done, mailboxAddr: mb, mailboxVar: v, rotation: r,
		})
		// for t = lo+r; t < hi; t += k { produce(mb, t); fork worker }
		iv := lc.newTemp(TInt)
		lc.emit(&Instr{Op: isa.OpAdd, Dst: iv, Srcs: []Src{vsrc(loV), cint(int64(r))}, Type: TInt})
		header, bodyB, exit := &Block{}, &Block{}, &Block{}
		lc.place(header)
		cond := lc.newTemp(TInt)
		lc.emit(&Instr{Op: isa.OpSlt, Dst: cond, Srcs: []Src{vsrc(iv), vsrc(hiV)}, Type: TInt})
		lc.emit(&Instr{Op: isa.OpBf, Srcs: []Src{vsrc(cond)}, Target: exit})
		lc.place(bodyB)
		lc.emit(&Instr{
			Op: isa.OpStore, Sync: isa.SyncProduce,
			Srcs: []Src{vsrc(iv)}, Offset: mb, AddrConst: true, Alias: lc.env.cellAlias(mb),
		})
		lc.emit(&Instr{Op: isa.OpFork, ForkSeg: seg})
		lc.emit(&Instr{Op: isa.OpAdd, Dst: iv, Srcs: []Src{vsrc(iv), cint(int64(k))}, Type: TInt})
		lc.emit(&Instr{Op: isa.OpJmp, Target: header})
		lc.place(exit)
	}
	// Join: consume (hi-lo) completions.
	cnt := lc.newTemp(TInt)
	lc.emit(&Instr{Op: isa.OpSub, Dst: cnt, Srcs: []Src{vsrc(hiV), vsrc(loV)}, Type: TInt})
	jv := lc.newTemp(TInt)
	lc.emit(&Instr{Op: isa.OpMov, Dst: jv, Srcs: []Src{cint(0)}, Type: TInt})
	header, bodyB, exit := &Block{}, &Block{}, &Block{}
	lc.place(header)
	cond := lc.newTemp(TInt)
	lc.emit(&Instr{Op: isa.OpSlt, Dst: cond, Srcs: []Src{vsrc(jv), vsrc(cnt)}, Type: TInt})
	lc.emit(&Instr{Op: isa.OpBf, Srcs: []Src{vsrc(cond)}, Target: exit})
	lc.place(bodyB)
	d := lc.newTemp(TInt)
	lc.emit(&Instr{
		Op: isa.OpLoad, Dst: d, Sync: isa.SyncConsume,
		Offset: done, AddrConst: true, Alias: doneAlias, Type: TInt,
	})
	lc.emit(&Instr{Op: isa.OpAdd, Dst: jv, Srcs: []Src{vsrc(jv), cint(1)}, Type: TInt})
	lc.emit(&Instr{Op: isa.OpJmp, Target: header})
	lc.place(exit)
	return nil
}

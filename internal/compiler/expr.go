package compiler

import (
	"pcoup/internal/isa"
	"pcoup/internal/sexpr"
)

// expr lowers an expression, returning its value as a Src (virtual
// register or compile-time constant) and its static type. Expressions
// with constant operands are evaluated statically (one of the paper
// compiler's optimizations).
func (lc *lowerCtx) expr(n *sexpr.Node) (Src, Type, error) {
	switch n.Kind {
	case sexpr.KInt:
		return cint(n.Int()), TInt, nil
	case sexpr.KFloat:
		return csrc(isa.Float(n.Float())), TFloat, nil
	case sexpr.KSymbol:
		return lc.symbolExpr(n)
	case sexpr.KList:
		return lc.listExpr(n)
	}
	return Src{}, TInt, errAt(n, "invalid expression %s", n)
}

func (lc *lowerCtx) symbolExpr(n *sexpr.Node) (Src, Type, error) {
	vi, cv, kind := lc.lookup(n.Text)
	switch kind {
	case lookupVar:
		return vsrc(vi.reg), vi.typ, nil
	case lookupConst:
		t := TInt
		if cv.IsFloat {
			t = TFloat
		}
		return csrc(cv), t, nil
	}
	if g, ok := lc.env.globals[n.Text]; ok {
		if g.size != 1 {
			return Src{}, TInt, errAt(n, "array %q used as a value (use aref or addr)", n.Text)
		}
		dst := lc.newTemp(g.typ)
		lc.emit(&Instr{
			Op: isa.OpLoad, Dst: dst, Offset: g.addr, AddrConst: true,
			Alias: g.alias, Type: g.typ,
		})
		return vsrc(dst), g.typ, nil
	}
	return Src{}, TInt, errAt(n, "unknown variable %q (fork bodies cannot capture parent locals; use globals)", n.Text)
}

func (lc *lowerCtx) listExpr(n *sexpr.Node) (Src, Type, error) {
	head := n.Head()
	switch head {
	case "aref":
		return lc.lowerAref(n)
	case "addr":
		if len(n.List) != 2 || n.List[1].Kind != sexpr.KSymbol {
			return Src{}, TInt, errAt(n, "addr wants a global name")
		}
		g, ok := lc.env.globals[n.List[1].Text]
		if !ok {
			return Src{}, TInt, errAt(n, "unknown global %q", n.List[1].Text)
		}
		return cint(g.addr), TInt, nil
	case "float":
		if len(n.List) != 2 {
			return Src{}, TInt, errAt(n, "float wants one argument")
		}
		s, t, err := lc.expr(n.List[1])
		if err != nil {
			return Src{}, TInt, err
		}
		s, err = lc.coerce(n, s, t, TFloat)
		return s, TFloat, err
	case "int":
		if len(n.List) != 2 {
			return Src{}, TInt, errAt(n, "int wants one argument")
		}
		s, t, err := lc.expr(n.List[1])
		if err != nil {
			return Src{}, TInt, err
		}
		if t == TInt {
			return s, TInt, nil
		}
		if s.IsConst {
			return cint(s.Const().AsInt()), TInt, nil
		}
		dst := lc.newTemp(TInt)
		lc.emit(&Instr{Op: isa.OpFtoI, Dst: dst, Srcs: []Src{s}, Type: TInt})
		return vsrc(dst), TInt, nil
	}
	if _, ok := arithOpcode(head); ok {
		return lc.lowerArith(n)
	}
	if fd, ok := lc.env.funcs[head]; ok {
		src, typ, err := lc.inlineCall(fd, n)
		if err != nil {
			return Src{}, TInt, err
		}
		if !src.IsConst && src.VReg == 0 {
			return Src{}, TInt, errAt(n, "procedure %q returns no value", head)
		}
		return src, typ, nil
	}
	return Src{}, TInt, errAt(n, "unknown expression %q", head)
}

// lowerAref handles (aref A idx [sync]).
func (lc *lowerCtx) lowerAref(n *sexpr.Node) (Src, Type, error) {
	if len(n.List) < 3 || len(n.List) > 4 {
		return Src{}, TInt, errAt(n, "aref wants (aref array index [sync])")
	}
	if n.List[1].Kind != sexpr.KSymbol {
		return Src{}, TInt, errAt(n, "aref array must be a global name")
	}
	g, ok := lc.env.globals[n.List[1].Text]
	if !ok {
		return Src{}, TInt, errAt(n, "unknown global %q", n.List[1].Text)
	}
	idx, it, err := lc.expr(n.List[2])
	if err != nil {
		return Src{}, TInt, err
	}
	if it != TInt {
		return Src{}, TInt, errAt(n.List[2], "array index must be an int")
	}
	sync := isa.SyncNone
	if len(n.List) == 4 {
		switch {
		case n.List[3].IsSym("waitfull"):
			sync = isa.SyncWaitFull
		case n.List[3].IsSym("consume"):
			sync = isa.SyncConsume
		default:
			return Src{}, TInt, errAt(n.List[3], "load sync must be waitfull or consume")
		}
	}
	dst := lc.newTemp(g.typ)
	in := &Instr{Op: isa.OpLoad, Dst: dst, Sync: sync, Alias: g.alias, Type: g.typ}
	if idx.IsConst {
		in.Offset = g.addr + idx.Const().AsInt()
		in.AddrConst = true
	} else {
		in.Offset = g.addr
		in.Srcs = []Src{idx}
	}
	lc.emit(in)
	return vsrc(dst), g.typ, nil
}

// coerce converts src from type `from` to type `to`, inserting an itof
// when promoting. Demoting float to int requires an explicit (int ...)
// conversion.
func (lc *lowerCtx) coerce(n *sexpr.Node, src Src, from, to Type) (Src, error) {
	if from == to {
		return src, nil
	}
	if from == TInt && to == TFloat {
		if src.IsConst {
			return csrc(isa.Float(src.Const().AsFloat())), nil
		}
		dst := lc.newTemp(TFloat)
		lc.emit(&Instr{Op: isa.OpItoF, Dst: dst, Srcs: []Src{src}, Type: TFloat})
		return vsrc(dst), nil
	}
	return Src{}, errAt(n, "cannot implicitly convert float to int (use (int ...))")
}

// arithHead describes a recognized arithmetic/comparison form.
type arithHead struct {
	intOp   isa.Opcode
	floatOp isa.Opcode // OpInvalid when the form is int-only
	// nary: fold-left over 2+ operands; unary allowed for "-".
	nary    bool
	compare bool // result is always int
	intOnly bool
}

var arithTable = map[string]arithHead{
	"+":    {intOp: isa.OpAdd, floatOp: isa.OpFAdd, nary: true},
	"-":    {intOp: isa.OpSub, floatOp: isa.OpFSub},
	"*":    {intOp: isa.OpMul, floatOp: isa.OpFMul, nary: true},
	"/":    {intOp: isa.OpDiv, floatOp: isa.OpFDiv},
	"%":    {intOp: isa.OpMod, intOnly: true},
	"<":    {intOp: isa.OpSlt, floatOp: isa.OpFlt, compare: true},
	"<=":   {intOp: isa.OpSle, floatOp: isa.OpFle, compare: true},
	"=":    {intOp: isa.OpSeq, floatOp: isa.OpFeq, compare: true},
	"!=":   {intOp: isa.OpSne, floatOp: isa.OpFne, compare: true},
	">":    {intOp: isa.OpSgt, floatOp: isa.OpFgt, compare: true},
	">=":   {intOp: isa.OpSge, floatOp: isa.OpFge, compare: true},
	"and":  {intOp: isa.OpAnd, intOnly: true, nary: true},
	"or":   {intOp: isa.OpOr, intOnly: true, nary: true},
	"xor":  {intOp: isa.OpXor, intOnly: true},
	"shl":  {intOp: isa.OpShl, intOnly: true},
	"shr":  {intOp: isa.OpShr, intOnly: true},
	"abs":  {intOp: isa.OpInvalid, floatOp: isa.OpFAbs},
	"not":  {intOp: isa.OpSeq, intOnly: true}, // (not x) => (= x 0)
	"fabs": {intOp: isa.OpInvalid, floatOp: isa.OpFAbs},
}

func arithOpcode(head string) (arithHead, bool) {
	h, ok := arithTable[head]
	return h, ok
}

// lowerArith lowers arithmetic, comparison, and logical forms. Mixed
// int/float operands promote to float.
func (lc *lowerCtx) lowerArith(n *sexpr.Node) (Src, Type, error) {
	head := arithTable[n.Head()]
	args := n.List[1:]
	if len(args) == 0 {
		return Src{}, TInt, errAt(n, "%s wants operands", n.Head())
	}
	// Operands of the common arities stay on the stack.
	var srcBuf [4]Src
	var typBuf [4]Type
	srcs, typs := srcBuf[:0], typBuf[:0]
	if len(args) > len(srcBuf) {
		srcs, typs = make([]Src, 0, len(args)), make([]Type, 0, len(args))
	}
	srcs, typs = srcs[:len(args)], typs[:len(args)]
	anyFloat := false
	for i, a := range args {
		s, t, err := lc.expr(a)
		if err != nil {
			return Src{}, TInt, err
		}
		srcs[i], typs[i] = s, t
		if t == TFloat {
			anyFloat = true
		}
	}

	switch n.Head() {
	case "not":
		if len(args) != 1 || typs[0] == TFloat {
			return Src{}, TInt, errAt(n, "not wants one int operand")
		}
		return lc.binop(isa.OpSeq, TInt, srcs[0], cint(0))
	case "abs", "fabs":
		if len(args) != 1 {
			return Src{}, TInt, errAt(n, "%s wants one operand", n.Head())
		}
		s, err := lc.coerce(n, srcs[0], typs[0], TFloat)
		if err != nil {
			return Src{}, TInt, err
		}
		return lc.unop(isa.OpFAbs, TFloat, s)
	case "-":
		if len(args) == 1 {
			if anyFloat {
				return lc.unop(isa.OpFNeg, TFloat, srcs[0])
			}
			return lc.unop(isa.OpNeg, TInt, srcs[0])
		}
	}

	if head.intOnly {
		if anyFloat {
			return Src{}, TInt, errAt(n, "%s wants int operands", n.Head())
		}
	}
	opType := TInt
	op := head.intOp
	if anyFloat && !head.intOnly {
		opType = TFloat
		op = head.floatOp
		for i := range srcs {
			var err error
			srcs[i], err = lc.coerce(args[i], srcs[i], typs[i], TFloat)
			if err != nil {
				return Src{}, TInt, err
			}
		}
	}
	resType := opType
	if head.compare {
		resType = TInt
	}

	if !head.nary && !head.compare && len(args) != 2 {
		return Src{}, TInt, errAt(n, "%s wants two operands", n.Head())
	}
	if head.compare && len(args) != 2 {
		return Src{}, TInt, errAt(n, "%s wants two operands", n.Head())
	}

	acc := srcs[0]
	for i := 1; i < len(srcs); i++ {
		s, t, err := lc.binop(op, opType, acc, srcs[i])
		if err != nil {
			return Src{}, TInt, err
		}
		acc = s
		_ = t
	}
	if len(srcs) == 1 {
		// Unary + or * with one operand: identity.
		return acc, resType, nil
	}
	if head.compare {
		return acc, TInt, nil
	}
	return acc, resType, nil
}

// binop emits (or folds) a two-operand pure operation.
func (lc *lowerCtx) binop(op isa.Opcode, t Type, a, b Src) (Src, Type, error) {
	if a.IsConst && b.IsConst {
		v, err := isa.Eval(op, []isa.Value{a.Const(), b.Const()})
		if err == nil {
			rt := TInt
			if v.IsFloat {
				rt = TFloat
			}
			return csrc(v), rt, nil
		}
	}
	rt := t
	if isCompareOp(op) {
		rt = TInt
	}
	dst := lc.newTemp(rt)
	lc.emit(&Instr{Op: op, Dst: dst, Srcs: []Src{a, b}, Type: rt})
	return vsrc(dst), rt, nil
}

func (lc *lowerCtx) unop(op isa.Opcode, t Type, a Src) (Src, Type, error) {
	if a.IsConst {
		v, err := isa.Eval(op, []isa.Value{a.Const()})
		if err == nil {
			rt := TInt
			if v.IsFloat {
				rt = TFloat
			}
			return csrc(v), rt, nil
		}
	}
	dst := lc.newTemp(t)
	lc.emit(&Instr{Op: op, Dst: dst, Srcs: []Src{a}, Type: t})
	return vsrc(dst), t, nil
}

func isCompareOp(op isa.Opcode) bool {
	switch op {
	case isa.OpSlt, isa.OpSle, isa.OpSeq, isa.OpSne, isa.OpSgt, isa.OpSge,
		isa.OpFlt, isa.OpFle, isa.OpFeq, isa.OpFne, isa.OpFgt, isa.OpFge:
		return true
	}
	return false
}

// inlineCall macro-expands a procedure call (def bodies are inlined, as
// in the paper: "procedures are implemented as macro-expansions").
// Constant arguments become compile-time bindings so that indices
// propagate into address computations.
func (lc *lowerCtx) inlineCall(fd *funcDef, n *sexpr.Node) (Src, Type, error) {
	if lc.inlineDepth >= maxInlineDepth {
		return Src{}, TInt, errAt(n, "procedure expansion too deep (recursion is not supported; procedures are macro-expanded)")
	}
	args := n.List[1:]
	if len(args) != len(fd.params) {
		return Src{}, TInt, errAt(n, "%s wants %d arguments, got %d", fd.name, len(fd.params), len(args))
	}
	f := &frame{}
	for i, p := range fd.params {
		src, typ, err := lc.expr(args[i])
		if err != nil {
			return Src{}, TInt, err
		}
		if src.IsConst {
			if f.consts == nil {
				f.consts = map[string]isa.Value{}
			}
			f.consts[p] = src.Const()
			continue
		}
		// Call by value: copy into a fresh register.
		v := lc.newTemp(typ)
		lc.emit(&Instr{Op: movOp(typ), Dst: v, Srcs: []Src{src}, Type: typ})
		if f.vars == nil {
			f.vars = map[string]varInfo{}
		}
		f.vars[p] = varInfo{reg: v, typ: typ}
	}
	savedRet := lc.ret
	savedFrames := lc.frames
	// Procedures see only their own parameters plus program-level
	// constants/globals (no dynamic scoping into the caller).
	lc.frames = nil
	lc.pushFrame(&frame{consts: lc.work.consts})
	lc.pushFrame(f)
	lc.ret = &retSlot{}
	lc.inlineDepth++
	err := lc.stmts(fd.body)
	lc.inlineDepth--
	ret := lc.ret
	lc.frames = savedFrames
	lc.ret = savedRet
	if err != nil {
		return Src{}, TInt, err
	}
	if !ret.set {
		return Src{}, TInt, nil // procedure with no return value
	}
	return ret.src, ret.typ, nil
}

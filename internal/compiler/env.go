package compiler

import (
	"fmt"
	"math"
	"slices"
	"time"

	"pcoup/internal/isa"
	"pcoup/internal/machine"
	"pcoup/internal/sexpr"
)

// global describes one memory-resident variable or array.
type global struct {
	name  string
	typ   Type
	size  int64
	addr  int64
	init  []isa.Value
	empty bool // presence bits start empty (synchronization cells)
	// alias names the global in Instr.Alias: its position in
	// globalOrder plus one.
	alias int32
}

// funcDef is a user procedure; calls are macro-expanded (inlined).
type funcDef struct {
	name   string
	params []string
	body   []*sexpr.Node
}

// segWork is one thread body awaiting lowering.
type segWork struct {
	name string
	body []*sexpr.Node
	// consts carries compile-time bindings captured at the fork site
	// (unroll and forall-static indices).
	consts map[string]isa.Value
	// doneAddr is the synchronization cell this segment produces to when
	// it finishes (-1 for the main segment).
	doneAddr int64
	// mailboxAddr, when >= 0, is a cell the segment consumes its loop
	// index from at startup (runtime forall workers); mailboxVar names
	// the index variable.
	mailboxAddr int64
	mailboxVar  string
	// rotation selects the segment's cluster preference (static load
	// balancing: different threads get different cluster orderings).
	rotation int
}

// env is the whole-program compilation environment.
type env struct {
	cfg  *machine.Config
	opts Options

	progName    string
	consts      map[string]isa.Value
	globals     map[string]*global
	globalOrder []string
	funcs       map[string]*funcDef

	segs         []segWork
	fns          []*Fn
	nextAddr     int64
	nextGen      int // generator for hidden cell / segment names
	nextRotation int // static load-balancing counter for spawned threads

	// lim, when non-nil, bounds compile work (untrusted input); irOps and
	// stmtCount are the running totals checked against it.
	lim       *Limits
	irOps     int64
	stmtCount int64
	// unitKinds records which kinds of function unit the lowered
	// operations need.
	unitKinds [machine.NumUnitKinds]bool

	// units holds the scheduler's unit tables, built once per build.
	units *unitTables

	// aliasProbes counts the globals cellAlias has looked at (tests
	// check that it grows as the log of the globals).
	aliasProbes int
}

// dataBase is the first address assigned to globals (address 0 is
// reserved so that stray zero addresses fault visibly in tests).
const dataBase = 8

// maxImageWords bounds the declared globals' total size, leaving room
// for hidden cells without int64 overflow.
const maxImageWords = math.MaxInt64 / 2

// newEnv scans top-level forms and builds the program environment.
func newEnv(forms []*sexpr.Node, cfg *machine.Config, opts Options) (*env, error) {
	e := &env{
		cfg:      cfg,
		opts:     opts,
		consts:   map[string]isa.Value{},
		globals:  map[string]*global{},
		funcs:    map[string]*funcDef{},
		nextAddr: dataBase,
	}
	// Accept either a single (program name form...) wrapper or bare
	// top-level forms.
	if len(forms) == 1 && forms[0].Head() == "program" {
		w := forms[0]
		if len(w.List) < 2 || w.List[1].Kind != sexpr.KSymbol {
			return nil, errAt(w, "program wants a name")
		}
		e.progName = w.List[1].Text
		forms = w.List[2:]
	} else {
		e.progName = "program"
	}
	for _, f := range forms {
		switch f.Head() {
		case "const":
			if err := e.declConst(f); err != nil {
				return nil, err
			}
		case "global":
			if err := e.declGlobal(f); err != nil {
				return nil, err
			}
		case "def":
			if err := e.declFunc(f); err != nil {
				return nil, err
			}
		default:
			return nil, errAt(f, "unknown top-level form %q", f.Head())
		}
	}
	main, ok := e.funcs["main"]
	if !ok {
		return nil, &CompileError{Msg: "no (def (main) ...) found"}
	}
	if len(main.params) != 0 {
		return nil, &CompileError{Msg: "main must take no parameters"}
	}
	e.segs = append(e.segs, segWork{
		name: "main", body: main.body, consts: map[string]isa.Value{},
		doneAddr: -1, mailboxAddr: -1,
	})
	return e, nil
}

func (e *env) declConst(f *sexpr.Node) error {
	if len(f.List) != 3 || f.List[1].Kind != sexpr.KSymbol {
		return errAt(f, "const wants (const name value)")
	}
	name := f.List[1].Text
	v, err := e.constEval(f.List[2], nil)
	if err != nil {
		return err
	}
	if _, dup := e.consts[name]; dup {
		return errAt(f, "duplicate const %q", name)
	}
	e.consts[name] = v
	return nil
}

// declGlobal parses (global name type option...) where type is one of
// int, float, (array int N), (array float N) and options are
// (init v...) or (empty).
func (e *env) declGlobal(f *sexpr.Node) error {
	if len(f.List) < 3 || f.List[1].Kind != sexpr.KSymbol {
		return errAt(f, "global wants (global name type [options])")
	}
	g := &global{name: f.List[1].Text, size: 1}
	tn := f.List[2]
	switch {
	case tn.IsSym("int"):
		g.typ = TInt
	case tn.IsSym("float"):
		g.typ = TFloat
	case tn.Head() == "array":
		if len(tn.List) != 3 {
			return errAt(tn, "array wants (array type size)")
		}
		switch {
		case tn.List[1].IsSym("int"):
			g.typ = TInt
		case tn.List[1].IsSym("float"):
			g.typ = TFloat
		default:
			return errAt(tn, "array element type must be int or float")
		}
		n, err := e.constEval(tn.List[2], nil)
		if err != nil {
			return err
		}
		if n.AsInt() < 1 {
			return errAt(tn, "array size must be positive")
		}
		g.size = n.AsInt()
	default:
		return errAt(tn, "unknown type %s", tn)
	}
	for _, opt := range f.List[3:] {
		if opt.IsSym("empty") {
			g.empty = true
			continue
		}
		switch opt.Head() {
		case "init":
			g.init = slices.Grow(g.init, len(opt.List)-1)
			for _, vn := range opt.List[1:] {
				v, err := e.constEval(vn, nil)
				if err != nil {
					return err
				}
				if g.typ == TFloat && !v.IsFloat {
					v = isa.Float(v.AsFloat())
				}
				g.init = append(g.init, v)
			}
			if int64(len(g.init)) > g.size {
				return errAt(opt, "init has %d values for size %d", len(g.init), g.size)
			}
		case "empty":
			g.empty = true
		default:
			return errAt(opt, "unknown global option %s", opt)
		}
	}
	if _, dup := e.globals[g.name]; dup {
		return errAt(f, "duplicate global %q", g.name)
	}
	// Keep the address arithmetic far from overflow: a wrapped image size
	// would slip past the memwords limit and reach emit.
	if g.size > maxImageWords-e.nextAddr {
		return errAt(tn, "memory image exceeds %d words", int64(maxImageWords))
	}
	g.addr = e.nextAddr
	e.nextAddr += g.size
	e.addGlobal(g)
	return nil
}

func (e *env) declFunc(f *sexpr.Node) error {
	if len(f.List) < 3 || f.List[1].Kind != sexpr.KList || len(f.List[1].List) == 0 {
		return errAt(f, "def wants (def (name params...) body...)")
	}
	sig := f.List[1].List
	fd := &funcDef{name: sig[0].Text}
	if sig[0].Kind != sexpr.KSymbol {
		return errAt(f, "function name must be a symbol")
	}
	for _, p := range sig[1:] {
		if p.Kind != sexpr.KSymbol {
			return errAt(p, "parameter must be a symbol")
		}
		fd.params = append(fd.params, p.Text)
	}
	fd.body = f.List[2:]
	if _, dup := e.funcs[fd.name]; dup {
		return errAt(f, "duplicate function %q", fd.name)
	}
	e.funcs[fd.name] = fd
	return nil
}

// newSyncCell allocates a hidden one-word synchronization cell whose
// presence bit starts empty.
func (e *env) newSyncCell(kind string) int64 {
	e.nextGen++
	name := fmt.Sprintf("_%s%d", kind, e.nextGen)
	g := &global{name: name, typ: TInt, size: 1, addr: e.nextAddr, empty: true}
	e.nextAddr++
	e.addGlobal(g)
	return g.addr
}

// addGlobal declares g, next in address order.
func (e *env) addGlobal(g *global) {
	e.globals[g.name] = g
	e.globalOrder = append(e.globalOrder, g.name)
	g.alias = int32(len(e.globalOrder))
}

// genName produces a unique hidden segment name.
func (e *env) genName(base, kind string) string {
	e.nextGen++
	return fmt.Sprintf("%s#%s%d", base, kind, e.nextGen)
}

// constEval evaluates a compile-time constant expression. scope provides
// extra bindings (unroll indices); it may be nil.
func (e *env) constEval(n *sexpr.Node, scope map[string]isa.Value) (isa.Value, error) {
	switch n.Kind {
	case sexpr.KInt:
		return isa.Int(n.Int()), nil
	case sexpr.KFloat:
		return isa.Float(n.Float()), nil
	case sexpr.KSymbol:
		if scope != nil {
			if v, ok := scope[n.Text]; ok {
				return v, nil
			}
		}
		if v, ok := e.consts[n.Text]; ok {
			return v, nil
		}
		if g, ok := e.globals[n.Text]; ok {
			_ = g
			return isa.Value{}, errAt(n, "global %q is not a compile-time constant", n.Text)
		}
		return isa.Value{}, errAt(n, "unknown constant %q", n.Text)
	case sexpr.KList:
		if n.Head() == "addr" && len(n.List) == 2 && n.List[1].Kind == sexpr.KSymbol {
			g, ok := e.globals[n.List[1].Text]
			if !ok {
				return isa.Value{}, errAt(n, "unknown global %q", n.List[1].Text)
			}
			return isa.Int(g.addr), nil
		}
		if _, ok := arithOpcode(n.Head()); !ok {
			return isa.Value{}, errAt(n, "not a constant expression: %s", n)
		}
		var vals []isa.Value
		for _, c := range n.List[1:] {
			v, err := e.constEval(c, scope)
			if err != nil {
				return isa.Value{}, err
			}
			vals = append(vals, v)
		}
		return constApply(n, n.Head(), vals)
	}
	return isa.Value{}, errAt(n, "not a constant expression")
}

// lowerAll lowers every segment (including fork bodies discovered during
// lowering) to IR. Under Limits, the segment count and memory image are
// re-checked each iteration because both grow as lowering discovers
// forks and allocates synchronization cells.
func (e *env) lowerAll() error {
	for i := 0; i < len(e.segs); i++ {
		if err := e.checkThreads(); err != nil {
			return err
		}
		fn, err := e.lowerSegment(&e.segs[i])
		if err != nil {
			return err
		}
		e.fns = append(e.fns, fn)
	}
	if err := e.checkThreads(); err != nil {
		return err
	}
	for k, need := range e.unitKinds {
		if kind := machine.UnitKind(k); need && e.cfg.CountUnits(kind) == 0 {
			return &UnitError{Kind: kind}
		}
	}
	// A deadline that has passed by the end of lowering rejects the
	// program here, whatever its statement count, so the back half
	// raises a DeadlineError only for a deadline passing during it.
	if e.lim != nil && !e.lim.Deadline.IsZero() && time.Now().After(e.lim.Deadline) {
		return &DeadlineError{Deadline: e.lim.Deadline}
	}
	return nil
}

// dropSource releases what only lowering reads: the procedures and each
// segment's body and compile-time bindings. Procedure and segment
// bodies are parse-tree nodes, so a lowered env keeps no node alive.
func (e *env) dropSource() {
	e.funcs = nil
	for i := range e.segs {
		e.segs[i].body = nil
		e.segs[i].consts = nil
	}
}

// memWords returns the total memory image size required.
func (e *env) memWords() int64 { return e.nextAddr + 16 }

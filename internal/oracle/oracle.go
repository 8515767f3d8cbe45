// Package oracle is a direct tree-walking evaluator for the source
// language, used as an independent reference for differential testing of
// the compiler + simulator pipeline (fuzz targets, the service's
// optional result verification, and pcbench's fuzzdiff experiment).
//
// Arithmetic is delegated to compiler.EvalArith, so its typing and
// operation semantics are by construction the same rules the compiler
// folds with and the simulator executes with. The oracle runs threads
// sequentially (fork and forall bodies execute inline at the spawn
// site), so it is a valid reference only for race-free programs — which
// the progfuzz generator guarantees by writing disjoint locations from
// parallel constructs.
package oracle

import (
	"fmt"

	"pcoup/internal/compiler"
	"pcoup/internal/isa"
	"pcoup/internal/sexpr"
)

// MaxSteps bounds loop iterations so a non-terminating (or merely huge)
// program cannot pin the interpreter.
const MaxSteps = 10_000_000

type interp struct {
	decls *compiler.Declarations
	mem   map[string][]isa.Value
}

// Run parses and evaluates a program, returning the final contents of
// every declared global (hidden cells do not exist at this level).
func Run(src string) (map[string][]isa.Value, error) {
	forms, err := sexpr.Parse(src)
	if err != nil {
		return nil, err
	}
	return RunForms(forms)
}

// RunForms evaluates pre-parsed top-level forms.
func RunForms(forms []*sexpr.Node) (map[string][]isa.Value, error) {
	decls, err := compiler.Analyze(forms)
	if err != nil {
		return nil, err
	}
	o := &interp{decls: decls, mem: map[string][]isa.Value{}}
	for name, g := range decls.Globals {
		vals := make([]isa.Value, g.Size)
		if g.Float {
			for i := range vals {
				vals[i] = isa.Float(0)
			}
		}
		copy(vals, g.Init)
		o.mem[name] = vals
	}
	main := decls.Funcs["main"]
	if main == nil {
		return nil, fmt.Errorf("oracle: no main")
	}
	sc := &scope{vars: map[string]isa.Value{}, consts: map[string]isa.Value{}}
	if _, err := o.stmts(main.Body, sc, 0); err != nil {
		return nil, err
	}
	out := map[string][]isa.Value{}
	for name, vals := range o.mem {
		out[name] = vals
	}
	return out, nil
}

type scope struct {
	parent *scope
	vars   map[string]isa.Value
	consts map[string]isa.Value
}

func (s *scope) lookupVar(name string) (*scope, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if _, ok := sc.vars[name]; ok {
			return sc, true
		}
		if _, ok := sc.consts[name]; ok {
			return nil, false
		}
	}
	return nil, false
}

func (s *scope) lookupConst(name string) (isa.Value, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if v, ok := sc.consts[name]; ok {
			return v, true
		}
		if _, ok := sc.vars[name]; ok {
			return isa.Value{}, false
		}
	}
	return isa.Value{}, false
}

type returned struct{ val isa.Value }

func (o *interp) stmts(nodes []*sexpr.Node, sc *scope, depth int) (*returned, error) {
	for _, n := range nodes {
		ret, err := o.stmt(n, sc, depth)
		if err != nil {
			return nil, err
		}
		if ret != nil {
			return ret, nil
		}
	}
	return nil, nil
}

func (o *interp) stmt(n *sexpr.Node, sc *scope, depth int) (*returned, error) {
	if depth > compiler.MaxExpandDepth {
		return nil, fmt.Errorf("oracle: expansion too deep")
	}
	switch n.Head() {
	case "set":
		name := n.List[1].Text
		v, err := o.expr(n.List[2], sc, depth)
		if err != nil {
			return nil, err
		}
		if owner, ok := sc.lookupVar(name); ok {
			old := owner.vars[name]
			if old.IsFloat && !v.IsFloat {
				v = isa.Float(v.AsFloat())
			}
			owner.vars[name] = v
			return nil, nil
		}
		if g, ok := o.decls.Globals[name]; ok {
			if g.Float && !v.IsFloat {
				v = isa.Float(v.AsFloat())
			}
			o.mem[name][0] = v
			return nil, nil
		}
		sc.vars[name] = v
		return nil, nil
	case "let":
		inner := &scope{parent: sc, vars: map[string]isa.Value{}, consts: map[string]isa.Value{}}
		for _, bind := range n.List[1].List {
			v, err := o.expr(bind.List[1], sc, depth)
			if err != nil {
				return nil, err
			}
			inner.vars[bind.List[0].Text] = v
		}
		return o.stmts(n.List[2:], inner, depth)
	case "if":
		c, err := o.expr(n.List[1], sc, depth)
		if err != nil {
			return nil, err
		}
		if c.Truthy() {
			return o.stmt(n.List[2], sc, depth)
		}
		if len(n.List) == 4 {
			return o.stmt(n.List[3], sc, depth)
		}
		return nil, nil
	case "while":
		for steps := 0; ; steps++ {
			if steps > MaxSteps {
				return nil, fmt.Errorf("oracle: while did not terminate")
			}
			c, err := o.expr(n.List[1], sc, depth)
			if err != nil {
				return nil, err
			}
			if !c.Truthy() {
				return nil, nil
			}
			if ret, err := o.stmts(n.List[2:], sc, depth); err != nil || ret != nil {
				return ret, err
			}
		}
	case "for", "unroll", "forall-static", "forall":
		// All loop forms run sequentially in the oracle.
		head := n.List[1].List
		name := head[0].Text
		lo, err := o.expr(head[1], sc, depth)
		if err != nil {
			return nil, err
		}
		hi, err := o.expr(head[2], sc, depth)
		if err != nil {
			return nil, err
		}
		step := int64(1)
		if len(head) == 4 {
			sv, err := o.expr(head[3], sc, depth)
			if err != nil {
				return nil, err
			}
			step = sv.AsInt()
			if step == 0 {
				return nil, fmt.Errorf("oracle: zero step")
			}
		}
		// Every iteration starts from an empty scope of its own; the
		// scope's maps keep their space from one iteration to the next.
		inner := &scope{parent: sc, vars: map[string]isa.Value{}, consts: map[string]isa.Value{}}
		for i := lo.AsInt(); i < hi.AsInt(); i += step {
			clear(inner.vars)
			clear(inner.consts)
			inner.vars[name] = isa.Int(i)
			if ret, err := o.stmts(n.List[2:], inner, depth); err != nil || ret != nil {
				return ret, err
			}
		}
		return nil, nil
	case "begin":
		return o.stmts(n.List[1:], sc, depth)
	case "aset":
		g, ok := o.decls.Globals[n.List[1].Text]
		if !ok {
			return nil, fmt.Errorf("oracle: unknown global %q", n.List[1].Text)
		}
		idx, err := o.expr(n.List[2], sc, depth)
		if err != nil {
			return nil, err
		}
		v, err := o.expr(n.List[3], sc, depth)
		if err != nil {
			return nil, err
		}
		if g.Float && !v.IsFloat {
			v = isa.Float(v.AsFloat())
		}
		i := idx.AsInt()
		if i < 0 || i >= g.Size {
			return nil, fmt.Errorf("oracle: %s[%d] out of range", g.Name, i)
		}
		o.mem[g.Name][i] = v
		return nil, nil
	case "fork":
		// Sequential execution of the forked body (race-free programs
		// only). Fork bodies see no parent locals.
		inner := &scope{vars: map[string]isa.Value{}, consts: flattenConsts(sc)}
		_, err := o.stmts(n.List[1:], inner, depth)
		return nil, err
	case "join":
		return nil, nil
	case "return":
		v, err := o.expr(n.List[1], sc, depth)
		if err != nil {
			return nil, err
		}
		return &returned{val: v}, nil
	default:
		if fd, ok := o.decls.Funcs[n.Head()]; ok {
			_, err := o.call(fd, n, sc, depth)
			return nil, err
		}
		return nil, fmt.Errorf("oracle: unknown statement %q", n.Head())
	}
}

func flattenConsts(sc *scope) map[string]isa.Value {
	out := map[string]isa.Value{}
	var walk func(*scope)
	walk = func(s *scope) {
		if s == nil {
			return
		}
		walk(s.parent)
		for k, v := range s.consts {
			out[k] = v
		}
		// Loop indices are vars in the oracle but compile-time constants
		// for unroll/forall-static; fork bodies may reference them.
		for k, v := range s.vars {
			out[k] = v
		}
	}
	walk(sc)
	return out
}

func (o *interp) call(fd *compiler.FuncDecl, n *sexpr.Node, sc *scope, depth int) (isa.Value, error) {
	if len(n.List)-1 != len(fd.Params) {
		return isa.Value{}, fmt.Errorf("oracle: %s arity", fd.Name)
	}
	inner := &scope{vars: map[string]isa.Value{}, consts: map[string]isa.Value{}}
	for i, p := range fd.Params {
		v, err := o.expr(n.List[i+1], sc, depth)
		if err != nil {
			return isa.Value{}, err
		}
		inner.vars[p] = v
	}
	ret, err := o.stmts(fd.Body, inner, depth+1)
	if err != nil {
		return isa.Value{}, err
	}
	if ret != nil {
		return ret.val, nil
	}
	return isa.Value{}, nil
}

func (o *interp) expr(n *sexpr.Node, sc *scope, depth int) (isa.Value, error) {
	switch n.Kind {
	case sexpr.KInt:
		return isa.Int(n.Int()), nil
	case sexpr.KFloat:
		return isa.Float(n.Float()), nil
	case sexpr.KSymbol:
		if owner, ok := sc.lookupVar(n.Text); ok {
			return owner.vars[n.Text], nil
		}
		if v, ok := sc.lookupConst(n.Text); ok {
			return v, nil
		}
		if v, ok := o.decls.Consts[n.Text]; ok {
			return v, nil
		}
		if g, ok := o.decls.Globals[n.Text]; ok {
			if g.Size != 1 {
				return isa.Value{}, fmt.Errorf("oracle: array %q as value", n.Text)
			}
			return o.mem[n.Text][0], nil
		}
		return isa.Value{}, fmt.Errorf("oracle: unknown name %q", n.Text)
	case sexpr.KList:
		switch n.Head() {
		case "aref":
			g, ok := o.decls.Globals[n.List[1].Text]
			if !ok {
				return isa.Value{}, fmt.Errorf("oracle: unknown global %q", n.List[1].Text)
			}
			idx, err := o.expr(n.List[2], sc, depth)
			if err != nil {
				return isa.Value{}, err
			}
			i := idx.AsInt()
			if i < 0 || i >= g.Size {
				return isa.Value{}, fmt.Errorf("oracle: %s[%d] out of range", g.Name, i)
			}
			return o.mem[g.Name][i], nil
		case "addr":
			g, ok := o.decls.Globals[n.List[1].Text]
			if !ok {
				return isa.Value{}, fmt.Errorf("oracle: unknown global")
			}
			return isa.Int(g.Addr), nil
		case "float":
			v, err := o.expr(n.List[1], sc, depth)
			if err != nil {
				return isa.Value{}, err
			}
			return isa.Float(v.AsFloat()), nil
		case "int":
			v, err := o.expr(n.List[1], sc, depth)
			if err != nil {
				return isa.Value{}, err
			}
			return isa.Int(v.AsInt()), nil
		}
		if compiler.IsArithOp(n.Head()) {
			// Operands of the common arities stay on the stack.
			var buf [4]isa.Value
			vals := buf[:0]
			if len(n.List)-1 > len(buf) {
				vals = make([]isa.Value, 0, len(n.List)-1)
			}
			vals = vals[:len(n.List)-1]
			for i, c := range n.List[1:] {
				v, err := o.expr(c, sc, depth)
				if err != nil {
					return isa.Value{}, err
				}
				vals[i] = v
			}
			return compiler.EvalArith(n, n.Head(), vals)
		}
		if fd, ok := o.decls.Funcs[n.Head()]; ok {
			return o.call(fd, n, sc, depth)
		}
	}
	return isa.Value{}, fmt.Errorf("oracle: bad expression %s", n)
}

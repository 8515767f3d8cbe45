package compiler_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pcoup/internal/compiler"
	"pcoup/internal/machine"
	"pcoup/internal/progfuzz"
	"pcoup/internal/sexpr"
)

// bombSources are hostile submissions the service must refuse at
// submission time: a parser nesting bomb, an over-size source, a
// forall-static thread explosion, an unrolling IR bomb, and globals too
// large for the memory image.
var bombSources = map[string]string{
	"nesting": strings.Repeat("(", 100_000),
	"bytes":   "(program p (def (main) (set x " + strings.Repeat("1", 70_000) + ")))",
	"threads": `
(program p
  (global a (array int 4096))
  (def (main) (forall-static (i 0 4096) (aset a i i))))`,
	"irops": `
(program p
  (global out (array int 1))
  (def (main)
    (unroll (a 0 100) (unroll (b 0 100) (unroll (c 0 100)
      (aset out 0 (+ (aref out 0) 1)))))))`,
	"memwords": `
(program p
  (global big (array int 9000000))
  (def (main) (aset big 0 1)))`,
	"giant-global": `
(program p
  (global big (array int 4611686018427387904))
  (def (main) (aset big 0 1)))`,
	// Two globals whose sizes sum past int64: the image size must not
	// wrap below the memwords limit.
	"overflow": `
(program p
  (global a (array int 4611686018427387904))
  (global b (array int 4611686018427387904))
  (def (main) (aset b 0 1)))`,
	"undefined": "(program p (def (main) (frobnicate x)))",
	"syntax":    "(program p (def (main) (set x 1))",
}

// errClass names an error by its concrete type and, for limit errors,
// the bound it hit.
func errClass(err error) string {
	var (
		pl *sexpr.LimitError
		cl *compiler.LimitError
	)
	switch {
	case errors.As(err, &pl):
		return "sexpr.LimitError/" + pl.What
	case errors.As(err, &cl):
		return "compiler.LimitError/" + cl.What
	}
	return fmt.Sprintf("%T", err)
}

// lowerSource is the submission check of a service: ParseBounded, then
// LowerBounded on the default machine.
func lowerSource(ctx context.Context, src string, opts compiler.Options, lim compiler.Limits) (*compiler.Lowered, error) {
	forms, err := compiler.ParseBounded(src, lim)
	if err != nil {
		return nil, err
	}
	return compiler.LowerBounded(ctx, forms, nil, opts, lim)
}

// TestCheckMatchesCompile runs the submission check (ParseBounded and
// LowerBounded) and CompileBounded over the progfuzz corpus and the bomb
// sources under the service limits and under limits tightened one
// dimension at a time: every input must be accepted by both or rejected
// by both with the same error type and message, and every typed
// rejection must fire on some input.
func TestCheckMatchesCompile(t *testing.T) {
	type input struct {
		name string
		src  string
		opts compiler.Options
	}
	var inputs []input
	seeds := int64(500)
	if testing.Short() {
		seeds = 48
	}
	optVariants := []compiler.Options{
		{},
		{Mode: compiler.SingleCluster},
		{AutoUnroll: 16, DisableOpt: true},
	}
	for seed := int64(0); seed < seeds; seed++ {
		inputs = append(inputs, input{fmt.Sprintf("seed%d", seed), progfuzz.Generate(seed), optVariants[seed%3]})
	}
	wide := progfuzz.GenOptions{MaxArraySize: 256, WideForall: true}
	for seed := int64(0); seed < 24; seed++ {
		inputs = append(inputs, input{fmt.Sprintf("wide%d", seed), progfuzz.GenerateOpts(1_000_000+seed, wide), compiler.Options{}})
	}
	for name, src := range bombSources {
		inputs = append(inputs, input{name, src, compiler.Options{}})
	}

	tight := func(f func(*compiler.Limits)) compiler.Limits {
		lim := compiler.ServiceLimits()
		f(&lim)
		return lim
	}
	limits := map[string]compiler.Limits{
		"service":  compiler.ServiceLimits(),
		"threads":  tight(func(l *compiler.Limits) { l.MaxThreads = 4 }),
		"irops":    tight(func(l *compiler.Limits) { l.MaxIROps = 200 }),
		"memwords": tight(func(l *compiler.Limits) { l.MaxMemWords = 64 }),
		"nodes":    tight(func(l *compiler.Limits) { l.MaxNodes = 50 }),
		"depth":    tight(func(l *compiler.Limits) { l.MaxDepth = 6 }),
		"bytes":    tight(func(l *compiler.Limits) { l.MaxSourceBytes = 400 }),
		"deadline": tight(func(l *compiler.Limits) { l.Deadline = time.Now().Add(-time.Second) }),
	}

	var (
		mu   sync.Mutex
		seen = map[string]bool{}
	)
	for limName, lim := range limits {
		t.Run(limName, func(t *testing.T) {
			t.Parallel()
			for _, in := range inputs {
				_, cerr := lowerSource(context.Background(), in.src, in.opts, lim)
				_, _, ferr := compiler.CompileBounded(context.Background(), in.src, nil, in.opts, lim)
				switch {
				case cerr == nil && ferr == nil:
					continue
				case cerr == nil || ferr == nil:
					t.Errorf("%s: check err %v, compile err %v", in.name, cerr, ferr)
					continue
				}
				if fmt.Sprintf("%T", cerr) != fmt.Sprintf("%T", ferr) || cerr.Error() != ferr.Error() {
					t.Errorf("%s: check err %T %q, compile err %T %q", in.name, cerr, cerr, ferr, ferr)
				}
				mu.Lock()
				seen[errClass(cerr)] = true
				mu.Unlock()
			}
		})
	}
	t.Cleanup(func() {
		for _, want := range []string{
			"sexpr.LimitError/bytes", "sexpr.LimitError/nodes", "sexpr.LimitError/depth",
			"*sexpr.SyntaxError",
			"compiler.LimitError/threads", "compiler.LimitError/irops", "compiler.LimitError/memwords",
			"*compiler.DeadlineError", "*compiler.CompileError",
		} {
			if !seen[want] {
				t.Errorf("no input raised %s (saw %v)", want, seen)
			}
		}
	})
}

// TestCheckHonorsContextDeadline pins that LowerBounded folds an expired
// ctx deadline into the limits exactly as CompileBounded does.
func TestCheckHonorsContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	src := bombSources["irops"]
	_, cerr := lowerSource(ctx, src, compiler.Options{}, compiler.ServiceLimits())
	_, _, ferr := compiler.CompileBounded(ctx, src, nil, compiler.Options{}, compiler.ServiceLimits())
	var de *compiler.DeadlineError
	if !errors.As(cerr, &de) || ferr == nil || cerr.Error() != ferr.Error() {
		t.Fatalf("check err %v, compile err %v, want matching DeadlineErrors", cerr, ferr)
	}
}

// TestLoweredBuild pins Lowered's contract: Build produces exactly the
// program and diagnostics of CompileBounded, runs once, and the Lowered
// holds no parse-tree node before it.
func TestLoweredBuild(t *testing.T) {
	srcs := []string{progfuzz.Generate(3), progfuzz.GenerateOpts(1_000_007, progfuzz.GenOptions{MaxArraySize: 256, WideForall: true})}
	for i, src := range srcs {
		for _, opts := range []compiler.Options{{}, {Mode: compiler.SingleCluster, AutoUnroll: 16}} {
			lim := compiler.ServiceLimits()
			l, err := lowerSource(context.Background(), src, opts, lim)
			if err != nil {
				t.Fatal(err)
			}
			if l.IROps() <= 0 || l.IROps() > int64(lim.MaxIROps) {
				t.Errorf("source %d: IROps %d outside (0, %d]", i, l.IROps(), lim.MaxIROps)
			}
			if path := nodePath(reflect.ValueOf(l), "Lowered", map[uintptr]bool{}); path != "" {
				t.Errorf("source %d: Lowered holds a parse-tree node at %s", i, path)
			}
			prog, diags, err := l.Build()
			if err != nil {
				t.Fatal(err)
			}
			want, wantDiags, err := compiler.CompileBounded(context.Background(), src, nil, opts, lim)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(prog, want) || !reflect.DeepEqual(diags, wantDiags) {
				t.Errorf("source %d %+v: Build differs from CompileBounded", i, opts)
			}
			if _, _, err := l.Build(); err == nil {
				t.Errorf("source %d: second Build succeeded", i)
			}
		}
	}
}

var nodeType = reflect.TypeOf(sexpr.Node{})

// nodePath returns the path of the first sexpr.Node reachable from v,
// unexported fields included, or "" when there is none.
func nodePath(v reflect.Value, path string, seen map[uintptr]bool) string {
	if v.Type() == nodeType {
		return path
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return ""
		}
		seen[v.Pointer()] = true
		return nodePath(v.Elem(), path, seen)
	case reflect.Interface:
		if v.IsNil() {
			return ""
		}
		return nodePath(v.Elem(), path, seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := nodePath(v.Field(i), path+"."+v.Type().Field(i).Name, seen); p != "" {
				return p
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p := nodePath(v.Index(i), fmt.Sprintf("%s[%d]", path, i), seen); p != "" {
				return p
			}
		}
	case reflect.Map:
		it := v.MapRange()
		for it.Next() {
			if p := nodePath(it.Value(), fmt.Sprintf("%s[%v]", path, it.Key()), seen); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestMissingUnitKind: a program whose operations need a kind of unit
// the machine lacks is a source-level rejection, a typed UnitError from
// lowering, in Compile and in LowerBounded alike; the same machine
// compiles a program that needs only the units it has.
func TestMissingUnitKind(t *testing.T) {
	noFPU := machine.Baseline()
	noFPU.Clusters = []machine.ClusterSpec{
		{Units: []machine.UnitSpec{{Kind: machine.IU, Latency: 1}, {Kind: machine.MEM, Latency: 1}}},
		{Units: []machine.UnitSpec{{Kind: machine.BR, Latency: 1}}},
	}
	if err := noFPU.Validate(); err != nil {
		t.Fatal(err)
	}
	const float = `
(program f
  (global x (array float 2))
  (def (main) (aset x 1 (* (aref x 0) 2.5))))`
	const integer = `
(program i
  (global x (array int 2))
  (def (main) (aset x 1 (* (aref x 0) 3))))`
	if _, _, err := compiler.Compile(integer, noFPU, compiler.Options{}); err != nil {
		t.Fatalf("integer program: %v", err)
	}
	_, _, err := compiler.Compile(float, noFPU, compiler.Options{})
	var ue *compiler.UnitError
	if !errors.As(err, &ue) || ue.Kind != machine.FPU {
		t.Fatalf("Compile of a float program without an FPU: err %v, want a UnitError for FPU", err)
	}
	lim := compiler.ServiceLimits()
	forms, err := compiler.ParseBounded(float, lim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compiler.LowerBounded(context.Background(), forms, noFPU, compiler.Options{}, lim); !errors.As(err, &ue) {
		t.Fatalf("LowerBounded: err %v, want a UnitError", err)
	}
}

package compiler_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"pcoup/internal/bench"
	"pcoup/internal/compiler"
	"pcoup/internal/progfuzz"
	"pcoup/internal/sexpr"
)

// racySource writes one global from two forks without ordering them: a
// program the reference interpreter still runs (sequentially), so a
// service that verifies it must reach the same verdict from either parse.
const racySource = `
(program racy
  (global out (array int 2))
  (def (main)
    (fork (aset out 0 1))
    (fork (aset out 0 2) (aset out 1 (aref out 0)))
    (join)))`

// formsSources are the programs whose parse trees the parking tests
// follow: narrow and wide progfuzz programs, the four threaded benchmark
// sources and a racy program.
func formsSources(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{"racy": racySource}
	for seed := int64(0); seed < 6; seed++ {
		srcs[fmt.Sprintf("narrow/%d", seed)] = progfuzz.Generate(seed)
		srcs[fmt.Sprintf("wide/%d", seed)] = progfuzz.GenerateOpts(1_000_000+seed, progfuzz.GenOptions{MaxArraySize: 128, WideForall: true})
	}
	for _, name := range bench.Names() {
		bm, err := bench.Get(name, bench.Threaded)
		if err != nil {
			t.Fatal(err)
		}
		srcs["bench/"+name] = bm.Source
	}
	return srcs
}

// renderForms writes forms one per line, as the service's content key
// renders them.
func renderForms(forms []*sexpr.Node) string {
	var text []byte
	for _, f := range forms {
		text = append(f.AppendText(text), '\n')
	}
	return string(text)
}

// TestLoweringLeavesFormsUnchanged pins what parking a submission's
// parse tree beside its lowered program relies on: LowerBounded (in
// both compiler modes) and Analyze read the forms and never change them,
// so the tree a worker later hands to the reference interpreter is the
// tree the submission check parsed.
func TestLoweringLeavesFormsUnchanged(t *testing.T) {
	for name, src := range formsSources(t) {
		forms, err := sexpr.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		before := renderForms(forms)
		for _, opts := range []compiler.Options{{}, {Mode: compiler.SingleCluster, AutoUnroll: 16}} {
			if _, err := compiler.LowerBounded(context.Background(), forms, nil, opts, compiler.Limits{}); err != nil {
				t.Fatalf("%s: LowerBounded: %v", name, err)
			}
		}
		if _, err := compiler.Analyze(forms); err != nil {
			t.Fatalf("%s: Analyze: %v", name, err)
		}
		if after := renderForms(forms); after != before {
			t.Errorf("%s: forms render differently after lowering\nbefore: %q\nafter:  %q", name, before, after)
		}
		fresh, err := sexpr.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(forms, fresh) {
			t.Errorf("%s: lowering changed the parse tree (values or positions)", name)
		}
	}
}

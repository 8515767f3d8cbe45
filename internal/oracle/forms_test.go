package oracle_test

import (
	"context"
	"reflect"
	"testing"

	"pcoup/internal/bench"
	"pcoup/internal/compiler"
	"pcoup/internal/oracle"
	"pcoup/internal/progfuzz"
	"pcoup/internal/sexpr"
)

// TestRunFormsMatchesRun: interpreting the forms a submission check
// parsed and lowered gives exactly what interpreting the source does, on
// narrow and wide progfuzz programs, the threaded benchmark sources and
// a racy program (two unordered forks writing one word).
func TestRunFormsMatchesRun(t *testing.T) {
	srcs := []string{`
(program racy
  (global out (array int 2))
  (def (main)
    (fork (aset out 0 1))
    (fork (aset out 0 2) (aset out 1 (aref out 0)))
    (join)))`}
	for seed := int64(0); seed < 6; seed++ {
		srcs = append(srcs, progfuzz.Generate(seed),
			progfuzz.GenerateOpts(1_000_000+seed, progfuzz.GenOptions{MaxArraySize: 128, WideForall: true}))
	}
	for _, name := range bench.Names() {
		bm, err := bench.Get(name, bench.Threaded)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, bm.Source)
	}
	for i, src := range srcs {
		want, err := oracle.Run(src)
		if err != nil {
			t.Fatalf("source %d: Run: %v", i, err)
		}
		forms, err := sexpr.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := compiler.LowerBounded(context.Background(), forms, nil, compiler.Options{}, compiler.Limits{}); err != nil {
			t.Fatalf("source %d: LowerBounded: %v", i, err)
		}
		got, err := oracle.RunForms(forms)
		if err != nil {
			t.Fatalf("source %d: RunForms: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("source %d: RunForms after lowering differs from Run", i)
		}
	}
}

package compiler_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"pcoup/internal/bench"
	"pcoup/internal/compiler"
	"pcoup/internal/isa"
	"pcoup/internal/machine"
	"pcoup/internal/progfuzz"
)

var update = flag.Bool("update", false, "rewrite testdata/codegen_golden.json from this compiler's output")

const goldenPath = "testdata/codegen_golden.json"

// goldenSource is one compiler input of the codegen golden.
type goldenSource struct {
	name string
	src  string
}

// goldenSources lists the golden's inputs: every benchmark in every kind
// it has, the first 500 progfuzz seeds, the 24 wide progfuzz seeds of
// the differential corpus, and one long straight-line block.
func goldenSources(t testing.TB) []goldenSource {
	var out []goldenSource
	for _, name := range bench.Names() {
		for _, kind := range []bench.SourceKind{bench.Sequential, bench.Threaded, bench.Ideal} {
			if kind == bench.Ideal && !bench.HasIdeal(name) {
				continue
			}
			b, err := bench.Get(name, kind)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, goldenSource{fmt.Sprintf("bench/%s/%v", name, kind), b.Source})
		}
	}
	for seed := int64(0); seed < 500; seed++ {
		out = append(out, goldenSource{fmt.Sprintf("progfuzz/%d", seed), progfuzz.Generate(seed)})
	}
	wide := progfuzz.GenOptions{MaxArraySize: 256, WideForall: true}
	for seed := int64(1_000_000); seed < 1_000_024; seed++ {
		out = append(out, goldenSource{fmt.Sprintf("progfuzz-wide/%d", seed), progfuzz.GenerateOpts(seed, wide)})
	}
	out = append(out, goldenSource{"unroll/300", unrollSource(300)})
	return out
}

// unrollSource is a program whose main is one basic block of n
// read-modify-write statements on the same memory word.
func unrollSource(n int) string {
	return fmt.Sprintf("(program u (global out (array int 1)) (def (main) (unroll (a 0 %d) (aset out 0 (+ (aref out 0) 1)))))", n)
}

// goldenMachines are the machine configurations the golden compiles for.
func goldenMachines(t testing.TB) map[string]*machine.Config {
	mix, err := machine.Load(filepath.Join("..", "..", "configs", "mix-2iu-2fpu.json"))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*machine.Config{"baseline": machine.Baseline(), "mix-2iu-2fpu": mix}
}

// codegenDigest is the SHA-256 of a compile's assembly text and its
// diagnostics, or of its error.
func codegenDigest(t testing.TB, src string, cfg *machine.Config, mode compiler.Mode) string {
	h := sha256.New()
	prog, diags, err := compiler.Compile(src, cfg, compiler.Options{Mode: mode})
	if err != nil {
		fmt.Fprintf(h, "error: %v", err)
	} else {
		var buf bytes.Buffer
		if err := isa.WriteText(&buf, prog); err != nil {
			t.Fatal(err)
		}
		h.Write(buf.Bytes())
		fmt.Fprintf(h, "%+v", diags)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCodegenGolden pins the compiler's output: the assembly text and
// diagnostics of every golden input, compiled for the baseline and the
// 2-IU/2-FPU mix in both modes, must hash to the recorded digests. Any
// change to optimization, scheduling or emission that moves a single
// operation fails it. Rewrite the file with -update only for a change
// meant to alter generated code.
func TestCodegenGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles 2,100+ programs")
	}
	machines := goldenMachines(t)
	got := map[string]string{}
	for _, s := range goldenSources(t) {
		for mname, cfg := range machines {
			for _, mode := range []compiler.Mode{compiler.Unrestricted, compiler.SingleCluster} {
				key := fmt.Sprintf("%s/%s/%v", s.name, mname, mode)
				got[key] = codegenDigest(t, s.src, cfg, mode)
			}
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	bad := 0
	for _, k := range keys {
		if got[k] != want[k] {
			bad++
			if bad <= 20 {
				t.Errorf("%s: digest %.12s, golden %.12s", k, got[k], want[k])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d compiles differ from %s", bad, len(keys), goldenPath)
	}
}

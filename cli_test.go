package pcoup_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLIs compiles the command-line tools once into a temp dir.
func buildCLIs(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, tool := range []string{"pcc", "pcsim", "pcbench", "pcfeas", "pcgen"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}
	return dir
}

const cliDemoSrc = `
(program clidemo
  (global out (array int 6))
  (def (main)
    (forall-static (i 0 6)
      (aset out i (* i 7)))))`

// TestCLIPipeline drives the full pcc -> pcsim pipeline as a user would,
// including the diagnostics, schedule table, interleave, timeline, and
// dump views, plus pcfeas.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildCLIs(t)
	dir := t.TempDir()
	srcPath := filepath.Join(dir, "demo.pcl")
	asmPath := filepath.Join(dir, "demo.pca")
	if err := os.WriteFile(srcPath, []byte(cliDemoSrc), 0o644); err != nil {
		t.Fatal(err)
	}

	// Compile with every diagnostic view enabled.
	cmd := exec.Command(filepath.Join(bin, "pcc"), "-diag", "-schedule", "-describe", "-o", asmPath, srcPath)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("pcc: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"segment", "cluster 0", "words"} {
		if !strings.Contains(text, want) {
			t.Errorf("pcc output missing %q:\n%s", want, text)
		}
	}

	// Simulate with dump, interleave, and timeline.
	cmd = exec.Command(filepath.Join(bin, "pcsim"), "-dump", "out", "-interleave", "10", "-timeline", "10", asmPath)
	out, err = cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("pcsim: %v\n%s", err, out)
	}
	text = string(out)
	for _, want := range []string{"cycles:", "threads:  7", "[  5] 35", "unit-to-thread interleaving", "utilization timeline"} {
		if !strings.Contains(text, want) {
			t.Errorf("pcsim output missing %q:\n%s", want, text)
		}
	}

	// A custom machine config must be honored end to end.
	cmd = exec.Command(filepath.Join(bin, "pcsim"), "-machine", "configs/baseline-triport.json", asmPath)
	if out, err = cmd.CombinedOutput(); err != nil {
		t.Fatalf("pcsim -machine: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "Tri-Port") {
		t.Errorf("pcsim did not use the loaded machine:\n%s", out)
	}

	// pcfeas prints the area table.
	cmd = exec.Command(filepath.Join(bin, "pcfeas"))
	if out, err = cmd.CombinedOutput(); err != nil {
		t.Fatalf("pcfeas: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "Tri-Port") {
		t.Errorf("pcfeas output:\n%s", out)
	}

	// pcbench JSON mode on the cheapest experiment.
	cmd = exec.Command(filepath.Join(bin, "pcbench"), "-exp", "table3", "-json")
	if out, err = cmd.CombinedOutput(); err != nil {
		t.Fatalf("pcbench: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "\"CompileSchedule\"") {
		t.Errorf("pcbench json output:\n%s", out)
	}

	// pcgen -> pcc -> pcsim: generated benchmarks flow through the tools.
	genPath := filepath.Join(dir, "fft16.pcl")
	cmd = exec.Command(filepath.Join(bin, "pcgen"), "-bench", "fft", "-size", "16", "-kind", "sequential", "-o", genPath)
	if out, err = cmd.CombinedOutput(); err != nil {
		t.Fatalf("pcgen: %v\n%s", err, out)
	}
	genAsm := filepath.Join(dir, "fft16.pca")
	cmd = exec.Command(filepath.Join(bin, "pcc"), "-o", genAsm, genPath)
	if out, err = cmd.CombinedOutput(); err != nil {
		t.Fatalf("pcc on generated source: %v\n%s", err, out)
	}
	cmd = exec.Command(filepath.Join(bin, "pcsim"), genAsm)
	if out, err = cmd.CombinedOutput(); err != nil {
		t.Fatalf("pcsim on generated program: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "cycles:") {
		t.Errorf("pcsim output:\n%s", out)
	}

	// Error handling: a bad source file must fail with a diagnostic.
	badPath := filepath.Join(dir, "bad.pcl")
	os.WriteFile(badPath, []byte("(program p (def (main) (set x y)))"), 0o644)
	cmd = exec.Command(filepath.Join(bin, "pcc"), badPath)
	out, err = cmd.CombinedOutput()
	if err == nil {
		t.Error("pcc accepted an invalid program")
	}
	if !strings.Contains(string(out), "unknown variable") {
		t.Errorf("pcc error output:\n%s", out)
	}

	// A float program for a valid machine with no FPU fails with an
	// error message, not a panic.
	base, err := os.ReadFile("configs/baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var noFPU map[string]any
	if err := json.Unmarshal(base, &noFPU); err != nil {
		t.Fatal(err)
	}
	noFPU["clusters"] = []any{
		map[string]any{"units": []any{map[string]any{"kind": "IU", "latency": 1}, map[string]any{"kind": "MEM", "latency": 1}}},
		map[string]any{"units": []any{map[string]any{"kind": "BR", "latency": 1}}},
	}
	cfgData, err := json.Marshal(noFPU)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "nofpu.json")
	os.WriteFile(cfgPath, cfgData, 0o644)
	cmd = exec.Command(filepath.Join(bin, "pcc"), "-machine", cfgPath, genPath)
	out, err = cmd.CombinedOutput()
	if err == nil || strings.Contains(string(out), "panic") || !strings.Contains(string(out), "no FPU") {
		t.Errorf("pcc for a machine with no FPU: err %v, output:\n%s", err, out)
	}
}

// TestExamplesRun executes the self-verifying examples end to end.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs example binaries")
	}
	cases := []struct {
		path string
		want string
	}{
		{"./examples/quickstart", "sum of squares 0..9 = 285"},
		{"./examples/circuitsim", "node voltages verified"},
		{"./examples/syncqueue", "processed exactly once"},
	}
	for _, c := range cases {
		cmd := exec.Command("go", "run", c.path)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", c.path, err, out)
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("%s output missing %q:\n%s", c.path, c.want, out)
		}
	}
}

package service

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"pcoup/internal/bench"
	"pcoup/internal/experiments"
	"pcoup/internal/machine"
)

// TestCellContentKeyMemoized pins every Table 2 cell's content key to
// the key computed from a freshly generated source: memoizing the
// source digests must not move a key, on the first call or any later
// one.
func TestCellContentKeyMemoized(t *testing.T) {
	cells := 0
	for _, name := range bench.Names() {
		for _, mode := range experiments.Modes() {
			if !experiments.ModeSupported(name, mode) {
				continue
			}
			cells++
			kind := bench.Threaded
			switch mode {
			case experiments.SEQ, experiments.STS:
				kind = bench.Sequential
			case experiments.IDEAL:
				kind = bench.Ideal
			}
			b, err := bench.Get(name, kind)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(b.Source))
			msha, err := machine.Baseline().Hash()
			if err != nil {
				t.Fatal(err)
			}
			o := SimOptions{MaxCycles: 12345}
			want := keyDoc{Kind: "cell", Name: name, Mode: string(mode),
				SourceSHA: hex.EncodeToString(sum[:]), MachineSHA: msha, Options: o}.hash()
			for i := 0; i < 2; i++ {
				got, err := CellContentKey(name, string(mode), nil, o)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s/%s call %d: key %s, want %s", name, mode, i, got, want)
				}
			}
		}
	}
	if cells != 18 {
		t.Fatalf("%d Table 2 cells, want 18", cells)
	}
}

// TestUnknownBenchError pins the rejection text for an unknown bench
// name on every path that names benches: cell jobs, sweeps and keys.
func TestUnknownBenchError(t *testing.T) {
	const want = `bench: unknown benchmark "quicksort"`
	spec := JobSpec{Cell: &CellSpec{Bench: "quicksort", Mode: "Coupled"}}
	if _, err := spec.Normalize(nil); err == nil || err.Error() != want {
		t.Errorf("cell: err = %v, want %q", err, want)
	}
	sw := SweepSpec{Benches: []string{"fft", "quicksort"}, MinIU: 1, MaxIU: 1}
	if err := sw.Normalize(); err == nil || err.Error() != want {
		t.Errorf("sweep: err = %v, want %q", err, want)
	}
	if _, err := CellContentKey("quicksort", "Coupled", nil, SimOptions{}); err == nil || err.Error() != want {
		t.Errorf("key: err = %v, want %q", err, want)
	}
	if _, err := bench.Get("quicksort", bench.Sequential); err == nil || err.Error() != want {
		t.Errorf("bench.Get: err = %v, want %q", err, want)
	}
}

// TestBaselineSHAMemoized: the memoized digest a machineless request
// keys on is the baseline's canonical hash, on every call.
func TestBaselineSHAMemoized(t *testing.T) {
	want, err := machine.Baseline().Hash()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got, err := machineSHA(nil); err != nil || got != want {
			t.Fatalf("call %d: machineSHA(nil) = %q, %v; want %q", i, got, err, want)
		}
	}
}

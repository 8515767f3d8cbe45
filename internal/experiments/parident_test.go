package experiments

// The parallel engine's contract is that it is invisible in the output:
// every registered experiment must produce byte-identical rows and
// byte-identical formatted text at any parallelism width. This suite
// runs the whole registry at width 1 and width 4 and diffs the bytes;
// it runs under -race in CI, so it doubles as the data-race check on
// everything the parallel cells share (the program cache and the
// benchmarks it keeps, the memory-image pool, per-Sim free lists).

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"pcoup/internal/machine"
	"pcoup/internal/parexec"
)

// TestParallelExperimentsByteIdentical: rows and formatted output of
// every registry experiment are identical at -j 1 and -j 4. perf is
// excluded (its rows are wall-clock timings, inherently run-to-run
// noisy); SkipInAll experiments are excluded as in "-exp all".
func TestParallelExperimentsByteIdentical(t *testing.T) {
	for _, e := range Registry() {
		if e.SkipInAll || e.Name == "perf" {
			continue
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			type out struct {
				rows []byte
				text string
			}
			runAt := func(width int) out {
				rc := &RunContext{Ctx: parexec.WithLimit(context.Background(), width)}
				rows, err := e.Run(rc)
				if err != nil {
					t.Fatalf("width %d: %v", width, err)
				}
				data, err := json.Marshal(rows)
				if err != nil {
					t.Fatalf("width %d: marshal: %v", width, err)
				}
				var buf bytes.Buffer
				e.Write(&buf, nil, rows)
				return out{rows: data, text: buf.String()}
			}
			seq := runAt(1)
			par := runAt(4)
			if !bytes.Equal(seq.rows, par.rows) {
				t.Errorf("rows differ between -j 1 and -j 4:\nseq: %s\npar: %s", seq.rows, par.rows)
			}
			if seq.text != par.text {
				t.Errorf("formatted output differs between -j 1 and -j 4:\nseq:\n%s\npar:\n%s", seq.text, par.text)
			}
		})
	}
}

// TestConcurrentCellLifecycle is the shared-state stress test: many
// goroutines construct, run, verify, and release the same cells at
// once — hammering the compiled-program cache and its shared
// benchmarks, the memory-image sync.Pool, and the per-Sim request free
// lists — while every result must still equal the sequential reference.
// Run under -race this is the cross-goroutine safety audit in
// executable form.
func TestConcurrentCellLifecycle(t *testing.T) {
	cfg := machine.Baseline()
	type cellID struct {
		bench string
		mode  Mode
	}
	var cells []cellID
	for _, b := range []string{"matrix", "fft", "model", "lud"} {
		for _, m := range Modes() {
			if ModeSupported(b, m) {
				cells = append(cells, cellID{b, m})
			}
		}
	}

	ref := make(map[cellID]string, len(cells))
	for _, c := range cells {
		r, err := Execute(c.bench, c.mode, cfg)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.bench, c.mode, err)
		}
		data, err := json.Marshal(r.Result)
		if err != nil {
			t.Fatal(err)
		}
		ref[c] = string(data)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine walks the cells at a different offset so
			// construction, simulation, and release of distinct cells
			// overlap in every combination.
			for i := range cells {
				c := cells[(i+g)%len(cells)]
				r, err := Execute(c.bench, c.mode, cfg)
				if err != nil {
					errs <- err
					return
				}
				data, err := json.Marshal(r.Result)
				if err != nil {
					errs <- err
					return
				}
				if string(data) != ref[c] {
					errs <- &nondeterministicCellError{bench: c.bench, mode: c.mode}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type nondeterministicCellError struct {
	bench string
	mode  Mode
}

func (e *nondeterministicCellError) Error() string {
	return "concurrent run of " + e.bench + "/" + string(e.mode) + " diverged from sequential reference"
}

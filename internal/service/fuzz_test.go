package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pcoup/internal/machine"
	"pcoup/internal/progfuzz"
)

// fuzzBombSources are the hostile programs of TestProgramNestingBomb422
// and TestProgramOverCap422, plus globals too large for any memory
// image.
var fuzzBombSources = []string{
	strings.Repeat("(", 100_000),
	"(program p (def (main) (set x " + strings.Repeat("1", 70_000) + ")))",
	"(program p (global a (array int 4096)) (def (main) (forall-static (i 0 4096) (aset a i i))))",
	"(program p (global out (array int 1)) (def (main) (unroll (a 0 100) (unroll (b 0 100) (unroll (c 0 100) (aset out 0 (+ (aref out 0) 1)))))))",
	"(program p (global big (array int 9000000)) (def (main) (aset big 0 1)))",
	"(program p (global big (array int 4611686018427387904)) (def (main) (aset big 0 1)))",
	"(program p (global a (array int 4611686018427387904)) (global b (array int 4611686018427387904)) (def (main) (aset b 0 1)))",
}

// FuzzJobSpec feeds arbitrary bytes through the decoders of POST
// /v1/jobs and POST /v1/programs and then normalize. It must never
// panic, and the program a program spec's check lowers must build: the
// submission check must reject every source the worker's compile would.
func FuzzJobSpec(f *testing.F) {
	add := func(v any) {
		data, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for seed := int64(0); seed < 8; seed++ {
		add(JobSpec{Program: &ProgramSpec{Source: progfuzz.Generate(seed), Verify: true}})
		add(ProgramRequest{ProgramSpec: ProgramSpec{Source: progfuzz.Generate(seed), Mode: "tpe", AutoUnroll: 4}})
	}
	add(ProgramRequest{ProgramSpec: ProgramSpec{
		Source: progfuzz.GenerateOpts(1_000_000, progfuzz.GenOptions{MaxArraySize: 128, WideForall: true}),
	}})
	for _, src := range fuzzBombSources {
		add(ProgramRequest{ProgramSpec: ProgramSpec{Source: src}})
	}
	add(JobSpec{Program: &ProgramSpec{Source: testProgram, Mode: "seq"}, Machine: machine.Mix(2, 1)})
	add(JobSpec{Cell: &CellSpec{Bench: "lud", Mode: "Coupled"}, Preset: "baseline"})
	add(JobSpec{Sweep: &SweepSpec{Benches: []string{"fft"}, MinIU: 1, MaxIU: 2}})
	add(JobSpec{Experiment: "table2"})

	presets := map[string]*machine.Config{"baseline": machine.Baseline()}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if decodeStrict(data, &spec) {
			checkNormalize(t, spec, presets)
		}
		var req ProgramRequest
		if decodeStrict(data, &req) {
			checkNormalize(t, req.JobSpec(), presets)
		}
	})
}

// decodeStrict decodes data as the HTTP handlers do.
func decodeStrict(data []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v) == nil
}

// fuzzCompileIROps bounds the programs FuzzJobSpec builds in full, so
// an exec stays well under a second. The back half is linear in block
// size: on a 2-vCPU host a single block of 150,000 IR ops builds in
// about 0.5 s, one at the service cap (500,000) in about 1.7 s.
const fuzzCompileIROps = 150_000

// checkNormalize normalizes spec and, when it holds an accepted
// program of at most fuzzCompileIROps IR operations, builds the program
// its check lowered, as the worker does with a parked one.
func checkNormalize(t *testing.T, spec JobSpec, presets map[string]*machine.Config) {
	cfg, work, err := spec.normalize(presets)
	if err != nil || spec.Program == nil {
		return
	}
	lowered := work.lowered
	if lowered == nil {
		t.Fatalf("accepted program was not lowered\nspec: %+v", spec)
	}
	if _, err := ProgramContentKey(spec.Program, cfg, spec.Options); err != nil {
		t.Fatalf("accepted program has no content key: %v", err)
	}
	if lowered.IROps() > fuzzCompileIROps {
		return
	}
	if _, _, err := lowered.Build(); err != nil {
		t.Fatalf("normalize accepted a program the worker cannot build: %v\nspec: %+v", err, spec)
	}
}

// FuzzJournalReplay feeds arbitrary journal bytes through replay
// (openJournal) and recovery (recoverLocked). Replay never fails on
// content and never panics, the pending IDs are unique, and every
// recovered job is either queued or failed with its error recorded. The
// seeds hold well-formed, duplicated, torn, and corrupted records.
func FuzzJournalReplay(f *testing.F) {
	line := func(r journalRecord) []byte {
		data, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		return append(data, '\n')
	}
	cell := cellSpec()
	submit := line(journalRecord{Kind: "submit", ID: "j-000001", Spec: &cell})
	prog := line(journalRecord{Kind: "submit", ID: "j-000002", Spec: &JobSpec{Program: &ProgramSpec{Source: testProgram}}, Attempts: 1})
	finish := line(journalRecord{Kind: "finish", ID: "j-000001", State: JobDone})
	stale := line(journalRecord{Kind: "submit", ID: "j-000003", Tenant: "bob", Attempts: 7,
		Spec: &JobSpec{Cell: &CellSpec{Bench: "fft", Mode: "Coupled"}, Preset: "gone"}})
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	f.Add(submit)
	f.Add(join(submit, submit, prog, prog))
	f.Add(join(submit, prog[:len(prog)/2]))
	f.Add(join(submit, finish, prog, stale))
	f.Add(join(bytes.Replace(submit, []byte(`"kind"`), []byte(`"kimd"`), 1), prog, []byte{0, 0, 0, '\n'}, stale))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.ndjson")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, pending, err := openJournal(path)
		if err != nil {
			t.Fatalf("replay refused a readable journal: %v", err)
		}
		defer j.Close()
		seen := map[string]bool{}
		for _, p := range pending {
			if seen[p.ID] {
				t.Fatalf("job %s pending twice", p.ID)
			}
			seen[p.ID] = true
		}
		// No worker runs, and an hour of retry backoff holds every
		// re-interrupted job in enqueueAfter until the context ends.
		srv := New(Options{QueueCap: len(pending) + 1, RetryBackoff: time.Hour})
		defer srv.baseCancel()
		srv.mu.Lock()
		srv.journal = j
		for _, p := range pending {
			srv.recoverLocked(p)
		}
		srv.mu.Unlock()
		for _, p := range pending {
			job, err := srv.jobs.Get(p.ID)
			if err != nil {
				t.Fatalf("recovered job %s is missing", p.ID)
			}
			if v := job.View(false); v.State != JobQueued && (v.State != JobFailed || v.Error == "") {
				t.Errorf("recovered job %s is %s (error %q), want queued or failed with an error", p.ID, v.State, v.Error)
			}
		}
	})
}

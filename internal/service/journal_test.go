package service

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// seedJournal writes raw records as a previous daemon would have left
// them (no compaction, no finish for pending jobs).
func seedJournal(t *testing.T, path string, write func(j *journal)) {
	t.Helper()
	j, pending, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if pending != nil {
		t.Fatalf("fresh journal reported pending jobs: %v", pending)
	}
	write(j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func cellSpec() JobSpec {
	return JobSpec{Cell: &CellSpec{Bench: "matrix", Mode: "Coupled"}}
}

// TestJournalRecoversInterruptedJob simulates a daemon killed mid-job:
// the journal holds a submit with no finish. The next Start must
// resubmit the job under the same ID, run it to completion, and count
// the recovery in /metrics.
func TestJournalRecoversInterruptedJob(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	seedJournal(t, path, func(j *journal) {
		spec := cellSpec()
		if err := j.submit("j-000007", spec, "", 0); err != nil {
			t.Fatal(err)
		}
	})

	srv, ts := newTestServer(t, Options{Workers: 1, JournalFile: path, RetryBackoff: time.Millisecond})
	view := waitJob(t, ts, "j-000007")
	if view.State != JobDone {
		t.Fatalf("recovered job state %s (%s), want done", view.State, view.Error)
	}
	if view.Attempts != 1 {
		t.Errorf("recovered job attempts = %d, want 1", view.Attempts)
	}

	if v := metricValue(t, ts, "pcserved_journal_recovered_total"); v != 1 {
		t.Errorf("pcserved_journal_recovered_total = %v, want 1", v)
	}

	// New submissions must not collide with the recovered ID space.
	next := submit(t, ts, cellSpec())
	if next.ID <= "j-000007" {
		t.Errorf("post-recovery submission got ID %s, want one after j-000007", next.ID)
	}
	_ = srv
}

// TestJournalRecoversProgramJob replays an interrupted program job. The
// journal holds the spec as submitted; recovery must check it again and
// record its canonical source digest, or the worker could not key the
// result.
func TestJournalRecoversProgramJob(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	seedJournal(t, path, func(j *journal) {
		if err := j.submit("j-000004", JobSpec{Program: &ProgramSpec{Source: testProgram, Verify: true}}, "", 0); err != nil {
			t.Fatal(err)
		}
	})
	_, ts := newTestServer(t, Options{Workers: 1, JournalFile: path, RetryBackoff: time.Millisecond})
	if view := waitJob(t, ts, "j-000004"); view.State != JobDone {
		t.Fatalf("recovered program job state %s (%s), want done", view.State, view.Error)
	}
}

// TestJournalFinishedJobNotReplayed: a submit paired with a finish is
// complete; restart must not resurrect it.
func TestJournalFinishedJobNotReplayed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	seedJournal(t, path, func(j *journal) {
		spec := cellSpec()
		j.submit("j-000001", spec, "", 0)
		j.finish("j-000001", JobDone)
	})
	srv, ts := newTestServer(t, Options{Workers: 1, JournalFile: path})
	if _, err := srv.jobs.Get("j-000001"); err == nil {
		t.Error("finished job was resurrected from the journal")
	}
	if v := metricValue(t, ts, "pcserved_journal_recovered_total"); v != 0 {
		t.Errorf("pcserved_journal_recovered_total = %v, want 0", v)
	}
}

// TestJournalRetryBudget: a job interrupted as many times as the budget
// allows is failed, not re-run, and the exhaustion is counted.
func TestJournalRetryBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	seedJournal(t, path, func(j *journal) {
		spec := cellSpec()
		j.submit("j-000003", spec, "", 2) // two prior interruptions; budget 2 -> third attempt over budget
	})
	_, ts := newTestServer(t, Options{Workers: 1, JournalFile: path, RetryBudget: 2})
	view := waitJob(t, ts, "j-000003")
	if view.State != JobFailed || !strings.Contains(view.Error, "retry budget") {
		t.Errorf("over-budget job: state %s error %q, want failed with retry budget message", view.State, view.Error)
	}
	if v := metricValue(t, ts, "pcserved_retry_budget_exhausted_total"); v != 1 {
		t.Errorf("pcserved_retry_budget_exhausted_total = %v, want 1", v)
	}
}

// TestJournalSurvivesTornTrailingRecord: a record half-written at kill
// time must not poison replay of the earlier records.
func TestJournalSurvivesTornTrailingRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	seedJournal(t, path, func(j *journal) {
		spec := cellSpec()
		j.submit("j-000001", spec, "", 0)
	})
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"kind":"fin`) // torn mid-record
	f.Close()

	_, pending, err := openJournal(path)
	if err != nil {
		t.Fatalf("torn journal failed to open: %v", err)
	}
	if len(pending) != 1 || pending[0].ID != "j-000001" {
		t.Errorf("pending = %v, want the one intact submission", pending)
	}
}

// TestJournalCompaction: reopening rewrites the file to only live
// records, so the journal does not grow with daemon lifetime.
func TestJournalCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	seedJournal(t, path, func(j *journal) {
		spec := cellSpec()
		for i := 1; i <= 20; i++ {
			id := "j-00000" + string(rune('0'+i%10))
			j.submit(id, spec, "", 0)
			j.finish(id, JobDone)
		}
	})
	j, pending, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(pending) != 0 {
		t.Fatalf("pending = %v, want none", pending)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Errorf("compacted journal not empty: %q", data)
	}
}

// TestJournalSkipsOversizedLine: a line longer than maxJournalLine — a
// zero-filled tail left by a crash, say — is skipped like any other
// unparsable line, and the records around it still replay.
func TestJournalSkipsOversizedLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	seedJournal(t, path, func(j *journal) {
		if err := j.submit("j-000001", cellSpec(), "", 0); err != nil {
			t.Fatal(err)
		}
		if _, err := j.file.Write(append(make([]byte, maxJournalLine+1), '\n')); err != nil {
			t.Fatal(err)
		}
		if err := j.submit("j-000002", cellSpec(), "", 1); err != nil {
			t.Fatal(err)
		}
		if _, err := j.file.Write(make([]byte, maxJournalLine+(1<<20))); err != nil {
			t.Fatal(err)
		}
	})
	j, pending, err := openJournal(path)
	if err != nil {
		t.Fatalf("journal with an oversized line failed to open: %v", err)
	}
	j.Close()
	if len(pending) != 2 || pending[0].ID != "j-000001" || pending[1].ID != "j-000002" || pending[1].Attempts != 1 {
		t.Errorf("pending = %+v, want j-000001 and j-000002 (1 attempt)", pending)
	}
}

// TestJournalCompactionCrashSafe: compaction keeps every pending job's
// submit record, so a daemon killed after compaction but before recovery
// re-journals its jobs finds them all on the next start.
func TestJournalCompactionCrashSafe(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	seedJournal(t, path, func(j *journal) {
		j.submit("j-000001", cellSpec(), "alice", 0)
		j.submit("j-000002", JobSpec{Program: &ProgramSpec{Source: testProgram}}, "", 2)
		j.submit("j-000003", cellSpec(), "", 0)
		j.finish("j-000003", JobDone)
	})
	j, first, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close() // killed before recovery appends anything
	j, again, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(again)
	if len(first) != 2 || string(a) != string(b) {
		t.Errorf("pending after a crash past compaction = %s, want %s", b, a)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("compaction left its temporary file behind (stat: %v)", err)
	}
}

// TestRetryDelay pins the three doubling schedules built on Backoff,
// with the values of the per-caller helpers it replaced: journal retry
// (RetryBackoff 1s, n = attempts-1), gateway failover (RetryBackoff
// 200ms, n = the attempt) and pool re-admission probes (ProbeInterval
// 500ms up to ReadmitMaxBackoff 8s, n = failed probes since ejection).
func TestRetryDelay(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		caller    string
		base, max time.Duration
		n         int
		want      time.Duration
	}{
		{"journal", time.Second, maxRetryBackoff, 0 - 1, 0},
		{"journal", time.Second, maxRetryBackoff, 1 - 1, 0},
		{"journal", time.Second, maxRetryBackoff, 2 - 1, time.Second},
		{"journal", time.Second, maxRetryBackoff, 3 - 1, 2 * time.Second},
		{"journal", time.Second, maxRetryBackoff, 4 - 1, 4 * time.Second},
		{"journal", time.Second, maxRetryBackoff, 7 - 1, 30 * time.Second},
		{"journal", time.Second, maxRetryBackoff, 100 - 1, 30 * time.Second},
		{"journal", 0, maxRetryBackoff, 3, 0},
		{"failover", 200 * ms, 30 * time.Second, 1, 200 * ms},
		{"failover", 200 * ms, 30 * time.Second, 2, 400 * ms},
		{"failover", 200 * ms, 30 * time.Second, 4, 1600 * ms},
		{"failover", 200 * ms, 30 * time.Second, 8, 25600 * ms},
		{"failover", 200 * ms, 30 * time.Second, 9, 30 * time.Second},
		{"failover", 200 * ms, 30 * time.Second, 100, 30 * time.Second},
		{"probe", 500 * ms, 8 * time.Second, 1, 500 * ms},
		{"probe", 500 * ms, 8 * time.Second, 2, time.Second},
		{"probe", 500 * ms, 8 * time.Second, 4, 4 * time.Second},
		{"probe", 500 * ms, 8 * time.Second, 5, 8 * time.Second},
		{"probe", 500 * ms, 8 * time.Second, 6, 8 * time.Second},
	} {
		if got := Backoff(tc.base, tc.max, tc.n); got != tc.want {
			t.Errorf("%s: Backoff(%v, %v, %d) = %v, want %v", tc.caller, tc.base, tc.max, tc.n, got, tc.want)
		}
	}
}

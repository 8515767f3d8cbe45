package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The write-ahead job journal makes accepted jobs durable: every
// submission appends a record before the job is visible, every terminal
// transition appends a matching finish record. A pcserved killed
// mid-job (even with SIGKILL — appends go straight to the kernel page
// cache, which survives process death) restarts, replays the journal,
// and resubmits every job whose finish record is missing, under the same
// job ID, so clients polling across the restart see their job complete.
// Each replay increments the job's attempt count; a job interrupted more
// often than the retry budget is failed instead of retried, and retries
// are delayed by exponential backoff so a crash-looping job cannot pin
// the pool.

// journalRecord is one NDJSON line of the journal.
type journalRecord struct {
	// Kind is "submit" or "finish".
	Kind string `json:"kind"`
	ID   string `json:"id"`
	// Spec is the full job specification (submit records).
	Spec *JobSpec `json:"spec,omitempty"`
	// Tenant attributes the submission (submit records; "" when the
	// submitter carried no tenant identity).
	Tenant string `json:"tenant,omitempty"`
	// Attempts counts prior interrupted executions (submit records).
	Attempts int `json:"attempts,omitempty"`
	// State is the terminal state (finish records).
	State JobState  `json:"state,omitempty"`
	Time  time.Time `json:"time"`
}

// pendingJob is a journaled submission with no finish record: work that
// was accepted but not completed when the previous process died.
type pendingJob struct {
	ID       string
	Spec     JobSpec
	Tenant   string
	Attempts int
}

// journal is the append-only NDJSON write-ahead log. Appends are
// unbuffered writes to the underlying file so that records survive an
// abrupt process kill without any flush protocol.
type journal struct {
	mu   sync.Mutex
	file *os.File
}

// maxJournalLine bounds one journal record; a longer line (a corrupt
// tail, say) is skipped like any other unparsable line.
const maxJournalLine = 16 << 20

// openJournal replays path and reopens it compacted: finished jobs are
// dropped, and every still-pending job is returned for the caller to
// resubmit (the caller re-journals what it keeps). A missing file starts
// an empty journal. Unparsable lines — e.g. a record half-written when
// the previous process was killed, or one over maxJournalLine — are
// skipped, not fatal: the journal must be readable after exactly the
// crashes it exists to survive.
//
// Compaction is crash-safe: the pending jobs' submit records are
// written unchanged to a temporary file, synced, and renamed over the
// journal, so a kill at any point leaves either the old journal or the
// compacted one, never a truncated one. The caller's re-appended
// submit records supersede the compacted ones, since replay keeps the
// last submit per ID.
func openJournal(path string) (*journal, []pendingJob, error) {
	byID := map[string]*pendingJob{}
	raw := map[string][]byte{}
	var order []string
	if f, err := os.Open(path); err == nil {
		err := forEachLine(f, maxJournalLine, func(line []byte) {
			var rec journalRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return
			}
			switch rec.Kind {
			case "submit":
				if rec.Spec == nil || rec.ID == "" {
					return
				}
				if _, seen := byID[rec.ID]; !seen {
					order = append(order, rec.ID)
				}
				byID[rec.ID] = &pendingJob{ID: rec.ID, Spec: *rec.Spec, Tenant: rec.Tenant, Attempts: rec.Attempts}
				raw[rec.ID] = bytes.Clone(line)
			case "finish":
				delete(byID, rec.ID)
			}
		})
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("service: reading journal %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, err
	}

	var pending []pendingJob
	for _, id := range order {
		if p, ok := byID[id]; ok {
			pending = append(pending, *p)
		}
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].ID < pending[j].ID })

	var compacted []byte
	for _, p := range pending {
		compacted = append(compacted, bytes.TrimRight(raw[p.ID], "\n")...)
		compacted = append(compacted, '\n')
	}
	if err := replaceFile(path, compacted); err != nil {
		return nil, nil, fmt.Errorf("service: compacting journal %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return &journal{file: f}, pending, nil
}

// forEachLine calls fn with each line of r (its newline included) of at
// most limit bytes, skipping longer lines whole without buffering them.
func forEachLine(r io.Reader, limit int, fn func(line []byte)) error {
	br := bufio.NewReaderSize(r, 64<<10)
	var line []byte
	skip := false
	for {
		frag, err := br.ReadSlice('\n')
		if !skip {
			if len(line)+len(frag) > limit {
				skip, line = true, line[:0]
			} else {
				line = append(line, frag...)
			}
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if !skip && len(line) > 0 {
			fn(line)
		}
		line, skip = line[:0], false
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// replaceFile atomically replaces path with data: it writes a temporary
// file beside it, syncs it, renames it over path, and syncs the
// directory so the rename itself survives a crash.
func replaceFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// append writes one record as a single NDJSON line.
func (j *journal) append(rec journalRecord) error {
	rec.Time = time.Now().UTC()
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	_, err = j.file.Write(append(data, '\n'))
	return err
}

// submit journals an accepted job before it becomes visible.
func (j *journal) submit(id string, spec JobSpec, tenant string, attempts int) error {
	return j.append(journalRecord{Kind: "submit", ID: id, Spec: &spec, Tenant: tenant, Attempts: attempts})
}

// finish journals a terminal transition; the job will not be replayed.
func (j *journal) finish(id string, state JobState) error {
	return j.append(journalRecord{Kind: "finish", ID: id, State: state})
}

// Close closes the underlying file.
func (j *journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.file.Close()
}

// Backoff returns the nth delay of a doubling schedule: base, 2·base,
// 4·base, … capped at max. It is 0 when n <= 0 or base <= 0. The journal
// spaces retries of a recovered job with it, and the fleet gateway its
// failover attempts and re-admission probes.
func Backoff(base, max time.Duration, n int) time.Duration {
	if n <= 0 || base <= 0 {
		return 0
	}
	d := base
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	return min(d, max)
}

// maxRetryBackoff caps the exponential retry delay.
const maxRetryBackoff = 30 * time.Second

package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"pcoup/internal/bench"
	"pcoup/internal/experiments"
	"pcoup/internal/machine"
	"pcoup/internal/obs"
)

// JobState is a job's lifecycle state.
type JobState string

const (
	// JobQueued: accepted, waiting for a worker.
	JobQueued JobState = "queued"
	// JobRunning: a worker is executing it.
	JobRunning JobState = "running"
	// JobDone: finished with a result.
	JobDone JobState = "done"
	// JobFailed: finished with an error.
	JobFailed JobState = "failed"
	// JobCancelled: cancelled before or during execution.
	JobCancelled JobState = "cancelled"
	// JobBudgetExceeded: the simulation hit its cycle budget before
	// completing. Distinct from failed so clients (and the fuzz oracle)
	// can tell "your program ran too long" from "the toolchain broke".
	JobBudgetExceeded JobState = "budget_exceeded"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled || s == JobBudgetExceeded
}

// CellSpec selects a single (benchmark, mode) simulation.
type CellSpec struct {
	Bench string `json:"bench"`
	Mode  string `json:"mode"`
}

// SweepSpec selects a function-unit mix sweep (the paper's Figure 8
// geometry, parameterized): every (bench, nIU, nFPU) cell in the given
// ranges runs on machine.Mix(nIU, nFPU). Cells stream as they finish and
// are cached individually.
type SweepSpec struct {
	// Benches defaults to the full suite.
	Benches []string `json:"benches,omitempty"`
	// Mode defaults to Coupled.
	Mode  string `json:"mode,omitempty"`
	MinIU int    `json:"min_iu"`
	MaxIU int    `json:"max_iu"`
	// MinFPU/MaxFPU default to the IU range when zero.
	MinFPU int `json:"min_fpu,omitempty"`
	MaxFPU int `json:"max_fpu,omitempty"`
}

// maxSweepCells bounds a single sweep job's size (the API is
// network-facing; a runaway spec must not pin the pool forever).
const maxSweepCells = 1024

// JobSpec is the POST /v1/jobs request body. Exactly one of Experiment,
// Cell, or Sweep selects the work; Machine (inline) or Preset (by name)
// selects the machine configuration, defaulting to the paper's baseline.
type JobSpec struct {
	// Experiment names a registry experiment (see pcbench -exp).
	Experiment string `json:"experiment,omitempty"`
	// Cell runs a single benchmark x mode simulation.
	Cell *CellSpec `json:"cell,omitempty"`
	// Sweep runs a unit-mix sweep with per-cell streaming and caching.
	Sweep *SweepSpec `json:"sweep,omitempty"`
	// Program compiles and simulates an untrusted source program under
	// the service resource limits (also reachable via POST /v1/programs).
	Program *ProgramSpec `json:"program,omitempty"`

	// Machine is an inline machine configuration; it is validated before
	// the job is accepted.
	Machine *machine.Config `json:"machine,omitempty"`
	// Preset names a configuration registered with the daemon
	// ("baseline" is always available; -presets adds a directory of
	// config files by file stem).
	Preset string `json:"preset,omitempty"`

	// Options are the simulation knobs that also key the result cache.
	Options SimOptions `json:"options,omitempty"`
	// TimeoutMS bounds the job's wall-clock execution (0: server
	// default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Clone returns spec with private copies of the Cell, Sweep and Program
// it points to. Normalizing a spec writes through those pointers (a
// cell's canonical mode, a sweep's defaults, a program's mode and
// digest), so both daemons normalize a clone: a caller may reuse one
// spec across concurrent submissions, and its values stay as written.
// A sweep's Benches slice is shared; normalization replaces it when
// empty and never writes its elements.
func (spec JobSpec) Clone() JobSpec {
	if spec.Cell != nil {
		c := *spec.Cell
		spec.Cell = &c
	}
	if spec.Sweep != nil {
		sw := *spec.Sweep
		spec.Sweep = &sw
	}
	if spec.Program != nil {
		p := *spec.Program
		spec.Program = &p
	}
	return spec
}

// Normalize validates the spec against the registry, the benchmark
// suite, and the preset table, and fills defaults (exported for the
// fleet gateway, which validates with the presets it knows). It returns
// the resolved machine config (nil meaning "driver default").
func (spec *JobSpec) Normalize(presets map[string]*machine.Config) (*machine.Config, error) {
	cfg, _, err := spec.normalize(presets)
	return cfg, err
}

// normalize is Normalize's implementation. For a program spec it also
// returns the lowered program and the forms of the submission check,
// which the caller may park for the worker or drop.
func (spec *JobSpec) normalize(presets map[string]*machine.Config) (*machine.Config, programWork, error) {
	if err := spec.CheckShape(); err != nil {
		return nil, programWork{}, err
	}
	var cfg *machine.Config
	switch {
	case spec.Machine != nil:
		if err := spec.Machine.Validate(); err != nil {
			return nil, programWork{}, err
		}
		cfg = spec.Machine
	case spec.Preset != "":
		p, ok := presets[spec.Preset]
		if !ok {
			return nil, programWork{}, fmt.Errorf("unknown preset %q (valid: %s)", spec.Preset, presetNames(presets))
		}
		cfg = p
	}
	if spec.Program != nil {
		// Validate by parsing and lowering under the service limits
		// against the resolved machine: a recursion bomb, an over-cap
		// source, or a thread explosion is rejected here with a typed
		// ProgramError (HTTP 422) instead of ever reaching a worker.
		work, err := spec.Program.normalize(cfg)
		if err != nil {
			return nil, programWork{}, err
		}
		return cfg, work, nil
	}
	return cfg, programWork{}, nil
}

// CheckShape runs the spec checks that need no machine configuration,
// filling the defaults they settle (a cell's canonical mode, a sweep's
// geometry): exactly one kind of work, not both machine and preset, a
// non-negative timeout and cycle budget, tracing on cells only, a
// registered experiment, a cell the suite can run, and a bounded sweep
// that names no machine. normalize runs it first; the fleet gateway
// runs only it for a preset that only its backends can resolve.
func (spec *JobSpec) CheckShape() error {
	selected := 0
	if spec.Experiment != "" {
		selected++
	}
	if spec.Cell != nil {
		selected++
	}
	if spec.Sweep != nil {
		selected++
	}
	if spec.Program != nil {
		selected++
	}
	if selected != 1 {
		return fmt.Errorf("spec must set exactly one of experiment, cell, sweep, program (got %d)", selected)
	}
	if spec.Machine != nil && spec.Preset != "" {
		return fmt.Errorf("spec sets both machine and preset")
	}
	if spec.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms: must be >= 0")
	}
	if spec.Options.MaxCycles < 0 {
		return fmt.Errorf("options.max_cycles: must be >= 0")
	}
	if spec.Options.Trace && spec.Cell == nil {
		return fmt.Errorf("options.trace applies to cell jobs only")
	}
	switch {
	case spec.Experiment != "":
		if _, ok := experiments.Lookup(spec.Experiment); !ok {
			return experiments.UnknownExperimentError(spec.Experiment)
		}
	case spec.Cell != nil:
		mode, err := experiments.ParseMode(spec.Cell.Mode)
		if err != nil {
			return err
		}
		spec.Cell.Mode = string(mode)
		if err := bench.CheckName(spec.Cell.Bench); err != nil {
			return err
		}
		if !experiments.ModeSupported(spec.Cell.Bench, mode) {
			return fmt.Errorf("benchmark %q has no %s variant", spec.Cell.Bench, mode)
		}
	case spec.Sweep != nil:
		if err := spec.Sweep.Normalize(); err != nil {
			return err
		}
		if spec.Machine != nil || spec.Preset != "" {
			return fmt.Errorf("sweep jobs build their own machines (machine/preset must be unset)")
		}
	}
	return nil
}

// Normalize fills sweep defaults and bounds the geometry. The fleet
// gateway applies the same normalization before splitting a sweep, so
// its merged payload embeds a spec byte-identical to a single backend's.
func (sw *SweepSpec) Normalize() error {
	if len(sw.Benches) == 0 {
		sw.Benches = bench.Names()
	}
	for _, b := range sw.Benches {
		if err := bench.CheckName(b); err != nil {
			return err
		}
	}
	if sw.Mode == "" {
		sw.Mode = string(experiments.COUPLED)
	}
	mode, err := experiments.ParseMode(sw.Mode)
	if err != nil {
		return err
	}
	sw.Mode = string(mode)
	if sw.MinFPU == 0 && sw.MaxFPU == 0 {
		sw.MinFPU, sw.MaxFPU = sw.MinIU, sw.MaxIU
	}
	for _, b := range [...]struct {
		name     string
		min, max int
	}{{"iu", sw.MinIU, sw.MaxIU}, {"fpu", sw.MinFPU, sw.MaxFPU}} {
		if b.min < 1 || b.max < b.min {
			return fmt.Errorf("sweep: %s range [%d,%d] invalid (need 1 <= min <= max)", b.name, b.min, b.max)
		}
		// Mix spreads units over max(nIU, nFPU) clusters plus a branch
		// cluster; keep within the machine package's cluster bound.
		if b.max >= machine.MaxClusters {
			return fmt.Errorf("sweep: %s max %d too large (max %d)", b.name, b.max, machine.MaxClusters-1)
		}
	}
	if n := len(sw.Benches) * (sw.MaxIU - sw.MinIU + 1) * (sw.MaxFPU - sw.MinFPU + 1); n > maxSweepCells {
		return fmt.Errorf("sweep: %d cells exceeds the %d-cell limit", n, maxSweepCells)
	}
	return nil
}

// Cells enumerates the sweep's (bench, iu, fpu) grid in a stable order —
// the order cells stream, merge, and key the sweep payload. Call
// Normalize first.
func (sw *SweepSpec) Cells() []SweepCell {
	var out []SweepCell
	for _, b := range sw.Benches {
		for iu := sw.MinIU; iu <= sw.MaxIU; iu++ {
			for fpu := sw.MinFPU; fpu <= sw.MaxFPU; fpu++ {
				out = append(out, SweepCell{Bench: b, IU: iu, FPU: fpu})
			}
		}
	}
	return out
}

// SweepCell is one (benchmark, unit mix) coordinate of a sweep grid.
type SweepCell struct {
	Bench string
	IU    int
	FPU   int
}

// SingleCellSweep returns the sweep spec that runs exactly cell c — the
// unit the fleet gateway scatters. Its per-cell payload (and cell cache
// key) is identical to the same cell inside any larger sweep.
func (sw *SweepSpec) SingleCellSweep(c SweepCell) *SweepSpec {
	return &SweepSpec{
		Benches: []string{c.Bench},
		Mode:    sw.Mode,
		MinIU:   c.IU, MaxIU: c.IU,
		MinFPU: c.FPU, MaxFPU: c.FPU,
	}
}

// Job is one submitted unit of work and its full lifecycle. Both
// daemons keep their jobs as Jobs in a JobTable; only execution differs.
type Job struct {
	mu sync.Mutex

	id       string
	spec     JobSpec
	tenant   string          // submitting tenant ("" when unattributed)
	cfg      *machine.Config // resolved from spec; nil = driver default
	state    JobState        // changes under the table's mu as well as mu
	errMsg   string
	result   json.RawMessage
	cells    []json.RawMessage // per-cell payloads (sweep jobs)
	total    int               // expected cell count (sweep jobs)
	hit      bool              // served from cache
	quietHit bool              // the stream's status line omits hit (gateway jobs)
	attempts int               // executions after journal recoveries (0: first run)
	created  time.Time
	started  time.Time
	ended    time.Time

	// work is what a program job's submission check parked for the
	// worker (its IR and its forms), nil for none; runJob takes it
	// before the job runs, and finish drops it, so a job that runs or
	// ends holds none.
	work *programWork

	cancelled bool // DELETE received
	cancel    context.CancelFunc
	// updated is closed and replaced whenever cells/state change, waking
	// stream subscribers; done is closed once on reaching a terminal
	// state.
	updated chan struct{}
	done    chan struct{}
}

func newJob(id string, spec JobSpec, cfg *machine.Config, now time.Time) *Job {
	return &Job{
		id: id, spec: spec, cfg: cfg,
		state:   JobQueued,
		created: now,
		updated: make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// ID returns the job's ID.
func (j *Job) ID() string { return j.id }

// Spec returns the job's (normalized) spec.
func (j *Job) Spec() JobSpec { return j.spec }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// notifyLocked wakes stream subscribers; callers hold j.mu.
func (j *Job) notifyLocked() {
	close(j.updated)
	j.updated = make(chan struct{})
}

// AppendCell records one completed sweep cell, in grid order, and wakes
// streamers.
func (j *Job) AppendCell(payload json.RawMessage) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cells = append(j.cells, payload)
	j.notifyLocked()
}

// SetTotal records a sweep's expected cell count.
func (j *Job) SetTotal(n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.total = n
}

// SetHit records whether the job was served from cache.
func (j *Job) SetHit(hit bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.hit = hit
}

// finish moves the job to a terminal state exactly once, reporting the
// state it left and whether this call did.
func (j *Job) finish(state JobState, result json.RawMessage, errMsg string, now time.Time) (JobState, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	from := j.state
	if from.Terminal() {
		return from, false
	}
	j.state = state
	j.result = result
	j.errMsg = errMsg
	j.ended = now
	j.work = nil
	j.notifyLocked()
	close(j.done)
	return from, true
}

// JobView is the wire representation of a job.
type JobView struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Spec  JobSpec  `json:"spec"`
	// Tenant attributes the job to its submitter (omitted when the
	// submission carried no tenant identity). Views only — never part of
	// result payloads or NDJSON data lines, so byte-identity of cell
	// streams is unaffected.
	Tenant   string `json:"tenant,omitempty"`
	Error    string `json:"error,omitempty"`
	CacheHit bool   `json:"cache_hit"`
	// Attempts counts journal-recovery re-executions (0: never
	// interrupted).
	Attempts int `json:"attempts,omitempty"`
	// CellsDone/CellsTotal report sweep progress (0/0 otherwise).
	CellsDone  int             `json:"cells_done,omitempty"`
	CellsTotal int             `json:"cells_total,omitempty"`
	Created    time.Time       `json:"created"`
	Started    *time.Time      `json:"started,omitempty"`
	Finished   *time.Time      `json:"finished,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// View snapshots the job. withResult controls whether the (possibly
// large) result payload is included.
func (j *Job) View(withResult bool) JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID: j.id, State: j.state, Spec: j.spec, Tenant: j.tenant, Error: j.errMsg,
		CacheHit: j.hit, Attempts: j.attempts,
		CellsDone: len(j.cells), CellsTotal: j.total,
		Created: j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.ended.IsZero() {
		t := j.ended
		v.Finished = &t
	}
	if withResult {
		v.Result = j.result
	}
	return v
}

// DefaultRetain is the number of finished jobs a JobTable keeps when its
// Retain is zero. It covers a client polling every 150 ms at up to about
// 6,800 finishes per second.
const DefaultRetain = 1024

// JobTable is a daemon's job table and the lifecycle transitions of its
// jobs: submission, begin-running, cancellation and finish. pcserved and
// pcfleet each keep one; what a job executes stays with the daemon.
//
// The table holds every queued and running job and the Retain most
// recently finished ones. Finishing a job past that bound drops the
// oldest finished job: its ID then answers as an unknown ID does, while
// its result stays in the cache under its content key. The table keeps
// one count per state, updated by its own transitions, so Counts never
// walks the jobs.
type JobTable struct {
	// Prefix starts every job ID ("j-" for pcserved, "f-" for pcfleet).
	Prefix string
	// QuietHits keeps cache_hit off the jobs' stream status lines (their
	// views still report it): a gateway's warm stream must stay
	// byte-identical to a backend's cold one.
	QuietHits bool
	// Retain bounds the finished jobs the table keeps (0: DefaultRetain).
	// Set it before the table is used.
	Retain int
	// Transitions counts every state change (the daemon's *_jobs_total).
	Transitions *obs.CounterVec
	// Finished, when set, runs once per job just after it reaches a
	// terminal state.
	Finished func(id string, state JobState)

	mu   sync.Mutex
	byID map[string]*Job
	// order lists the jobs in submission order. A dropped job stays in
	// it, absent from byID, until dead reaches half its length and
	// compactLocked sweeps them out.
	order []*Job
	dead  int
	// finished holds the finished jobs still in the table, oldest first.
	finished []*Job
	// counts is the number of held jobs in each state (no zero entries).
	counts map[JobState]int
	nextID int
}

// Add builds a queued job under the table's next ID and inserts it.
// admit, when set, runs before the insert (journal the job, hand it to
// a worker); its error rejects the job and leaves the ID unused, so IDs
// stay dense. admit runs with the table locked and must not call back
// into the table.
func (t *JobTable) Add(spec JobSpec, cfg *machine.Config, tenant string, admit func(*Job) error) (*Job, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	job := newJob(fmt.Sprintf("%s%06d", t.Prefix, t.nextID+1), spec, cfg, time.Now())
	job.tenant = tenant
	job.quietHit = t.QuietHits
	if admit != nil {
		if err := admit(job); err != nil {
			return nil, err
		}
	}
	t.nextID++
	t.insertLocked(job)
	return job, nil
}

// restore inserts a journal-recovered job under its original ID and
// moves the ID counter past it.
func (t *JobTable) restore(job *Job) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int
	if _, err := fmt.Sscanf(job.id, t.Prefix+"%d", &n); err == nil && n > t.nextID {
		t.nextID = n
	}
	job.quietHit = t.QuietHits
	t.insertLocked(job)
}

func (t *JobTable) insertLocked(job *Job) {
	if t.byID == nil {
		t.byID = map[string]*Job{}
		t.counts = map[JobState]int{}
	}
	t.byID[job.id] = job
	t.order = append(t.order, job)
	t.counts[JobQueued]++
	t.Transitions.Inc(string(JobQueued))
}

// moveLocked moves one job's count from state from to state to ("" for
// a job leaving the table).
func (t *JobTable) moveLocked(from, to JobState) {
	if t.counts[from]--; t.counts[from] == 0 {
		delete(t.counts, from)
	}
	if to != "" {
		t.counts[to]++
	}
}

// retireLocked queues a newly finished job for dropping and drops the
// oldest finished jobs beyond Retain.
func (t *JobTable) retireLocked(job *Job) {
	t.finished = append(t.finished, job)
	retain := t.Retain
	if retain <= 0 {
		retain = DefaultRetain
	}
	for len(t.finished) > retain {
		old := t.finished[0]
		t.finished[0] = nil
		t.finished = t.finished[1:]
		delete(t.byID, old.id)
		t.moveLocked(old.state, "")
		if t.dead++; t.dead > len(t.order)/2 {
			t.compactLocked()
		}
	}
}

// compactLocked sweeps dropped jobs out of order.
func (t *JobTable) compactLocked() {
	live := t.order[:0]
	for _, j := range t.order {
		if t.byID[j.id] == j {
			live = append(live, j)
		}
	}
	clear(t.order[len(live):])
	t.order = live
	t.dead = 0
}

// Get returns a job by id.
func (t *JobTable) Get(id string) (*Job, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	job, ok := t.byID[id]
	if !ok {
		return nil, ErrNotFound
	}
	return job, nil
}

// List snapshots the held jobs in submission order.
func (t *JobTable) List() []JobView {
	t.mu.Lock()
	jobs := make([]*Job, 0, len(t.byID))
	for _, j := range t.order {
		if t.byID[j.id] == j {
			jobs = append(jobs, j)
		}
	}
	t.mu.Unlock()
	out := make([]JobView, len(jobs))
	for i, j := range jobs {
		out[i] = j.View(false)
	}
	return out
}

// Counts returns the number of held jobs in each state.
func (t *JobTable) Counts() map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	byState := make(map[string]int, len(t.counts))
	for state, n := range t.counts {
		byState[string(state)] = n
	}
	return byState
}

// Begin moves a queued job to running, with cancel as the way to stop
// it. It reports false, leaving the job alone, when the job already
// finished (cancelled while queued): the caller must not run it and
// releases whatever it reserved for it. A job cancelled since it was
// queued has cancel called at once.
func (t *JobTable) Begin(job *Job, cancel context.CancelFunc) bool {
	// A job changes state only under the table's lock as well as its
	// own, so the counts move with it.
	t.mu.Lock()
	job.mu.Lock()
	from := job.state
	if from.Terminal() {
		job.mu.Unlock()
		t.mu.Unlock()
		return false
	}
	job.state = JobRunning
	job.started = time.Now()
	job.cancel = cancel
	cancelled := job.cancelled
	job.notifyLocked()
	job.mu.Unlock()
	t.moveLocked(from, JobRunning)
	t.mu.Unlock()
	t.Transitions.Inc(string(JobRunning))
	if cancelled {
		cancel()
	}
	return true
}

// Cancel requests cancellation of a job. A queued job finishes
// cancelled at once; a running job has its context cancelled and its
// executor finishes it. Cancelling a finished job is a no-op. The check
// and the finish of a queued job hold the table's lock, so Begin cannot
// start the job between them.
func (t *JobTable) Cancel(id string) (*Job, error) {
	t.mu.Lock()
	job, ok := t.byID[id]
	if !ok {
		t.mu.Unlock()
		return nil, ErrNotFound
	}
	job.mu.Lock()
	job.cancelled = true
	state, cancel := job.state, job.cancel
	job.mu.Unlock()
	finished := state == JobQueued && t.finishLocked(job, JobCancelled, nil, "cancelled before execution")
	t.mu.Unlock()
	switch {
	case finished:
		t.afterFinish(job, JobCancelled)
	case state == JobRunning:
		cancel()
	}
	return job, nil
}

// Finish moves a job to a terminal state; only the first call counts.
// The job joins the finished jobs the table retains, which may drop the
// oldest of them.
func (t *JobTable) Finish(job *Job, state JobState, result json.RawMessage, errMsg string) {
	t.mu.Lock()
	ok := t.finishLocked(job, state, result, errMsg)
	t.mu.Unlock()
	if ok {
		t.afterFinish(job, state)
	}
}

// finishLocked is Finish's transition, reporting whether this call made
// it; callers hold t.mu and then call afterFinish.
func (t *JobTable) finishLocked(job *Job, state JobState, result json.RawMessage, errMsg string) bool {
	from, ok := job.finish(state, result, errMsg, time.Now())
	if ok {
		t.moveLocked(from, state)
		t.retireLocked(job)
	}
	return ok
}

// afterFinish counts a job's terminal transition and runs the Finished
// hook, outside the table's lock.
func (t *JobTable) afterFinish(job *Job, state JobState) {
	t.Transitions.Inc(string(state))
	if t.Finished != nil {
		t.Finished(job.id, state)
	}
}

func presetNames(presets map[string]*machine.Config) string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"pcoup/internal/feasibility"
	"pcoup/internal/machine"
)

// Experiment is one registry entry: a named, self-describing driver that
// produces JSON-encodable rows plus a formatter for the paper's textual
// layout. The registry is the single source of truth for the experiment
// names exposed by pcbench's -exp flag, the pcserved job API, and both
// tools' usage text.
type Experiment struct {
	// Name is the stable identifier (the -exp value and job-spec field).
	Name string
	// Brief is a one-line description for usage text.
	Brief string
	// Run produces the experiment's rows. The returned value is
	// JSON-encodable (a row slice, or a result struct).
	Run func(rc *RunContext) (any, error)
	// Write formats rows (as returned by Run) for terminals. cfg is the
	// base configuration the rows were produced under.
	Write func(w io.Writer, cfg *machine.Config, rows any)
	// SkipInAll excludes the experiment from "-exp all" runs (heavy
	// meta-experiments that spawn their own daemons, like fleetfair).
	SkipInAll bool
}

// registry lists every experiment in the paper's presentation order.
// Names here are the only copy: pcbench's flag help, its dispatch, and
// pcserved's job validation all derive from this slice.
var registry = []Experiment{
	{
		Name:  "table2",
		Brief: "baseline cycle counts and utilization per mode (Table 2)",
		Run:   func(rc *RunContext) (any, error) { return Table2Ctx(rc.Context(), rc.Config()) },
		Write: func(w io.Writer, _ *machine.Config, rows any) { WriteTable2(w, rows.([]Table2Row)) },
	},
	{
		Name:  "figure4",
		Brief: "baseline cycle counts as a bar chart (Figure 4)",
		Run:   func(rc *RunContext) (any, error) { return Table2Ctx(rc.Context(), rc.Config()) },
		Write: func(w io.Writer, _ *machine.Config, rows any) { WriteFigure4(w, rows.([]Table2Row)) },
	},
	{
		Name:  "figure5",
		Brief: "function-unit utilization per benchmark and mode (Figure 5)",
		Run:   func(rc *RunContext) (any, error) { return Figure5Ctx(rc.Context(), rc.Config()) },
		Write: func(w io.Writer, _ *machine.Config, rows any) { WriteFigure5(w, rows.([]Figure5Row)) },
	},
	{
		Name:  "table3",
		Brief: "interference between coupled threads on a shared queue (Table 3)",
		Run:   func(rc *RunContext) (any, error) { return Table3Ctx(rc.Context(), rc.Config()) },
		Write: func(w io.Writer, _ *machine.Config, rows any) { WriteTable3(w, rows.(*Table3Result)) },
	},
	{
		Name:  "figure6",
		Brief: "restricted inter-cluster communication schemes (Figure 6)",
		Run:   func(rc *RunContext) (any, error) { return Figure6Ctx(rc.Context(), rc.Config()) },
		Write: func(w io.Writer, _ *machine.Config, rows any) { WriteFigure6(w, rows.([]Figure6Row)) },
	},
	{
		Name:  "figure7",
		Brief: "variable memory latency models (Figure 7)",
		Run:   func(rc *RunContext) (any, error) { return Figure7Ctx(rc.Context(), rc.Config()) },
		Write: func(w io.Writer, _ *machine.Config, rows any) { WriteFigure7(w, rows.([]Figure7Row)) },
	},
	{
		Name:  "figure8",
		Brief: "function-unit count and mix sweep (Figure 8; ignores -machine)",
		Run:   func(rc *RunContext) (any, error) { return Figure8Ctx(rc.Context()) },
		Write: func(w io.Writer, _ *machine.Config, rows any) { WriteFigure8(w, rows.([]Figure8Row)) },
	},
	{
		Name:  "registers",
		Brief: "compile-time peak register usage (Section 3)",
		Run:   func(rc *RunContext) (any, error) { return RegistersCtx(rc.Context(), rc.Config()) },
		Write: func(w io.Writer, _ *machine.Config, rows any) { WriteRegisters(w, rows.([]RegisterRow)) },
	},
	{
		Name:  "scaling",
		Brief: "problem-size scaling of STS vs Coupled (extension)",
		Run:   func(rc *RunContext) (any, error) { return ScalingCtx(rc.Context(), rc.Config()) },
		Write: func(w io.Writer, _ *machine.Config, rows any) { WriteScaling(w, rows.([]ScalingRow)) },
	},
	{
		Name:  "unroll",
		Brief: "automatic loop unrolling (extension)",
		Run:   func(rc *RunContext) (any, error) { return UnrollingCtx(rc.Context(), rc.Config()) },
		Write: func(w io.Writer, _ *machine.Config, rows any) { WriteUnrolling(w, rows.([]UnrollRow)) },
	},
	{
		Name:  "threadcap",
		Brief: "active-thread limit sweep under long memory latency (extension)",
		Run:   func(rc *RunContext) (any, error) { return ThreadCapCtx(rc.Context(), rc.Cfg) },
		Write: func(w io.Writer, _ *machine.Config, rows any) { WriteThreadCap(w, rows.([]ThreadCapRow)) },
	},
	{
		Name:  "stalls",
		Brief: "cycle-level stall attribution by cause (extension)",
		Run:   func(rc *RunContext) (any, error) { return StallsCtx(rc.Context(), rc.Config()) },
		Write: func(w io.Writer, _ *machine.Config, rows any) { WriteStalls(w, rows.([]StallRow)) },
	},
	{
		Name:  "dynsched",
		Brief: "dynamic scheduling: OoO window, branch prediction, prefetching (extension)",
		Run:   func(rc *RunContext) (any, error) { return DynSchedCtx(rc.Context(), rc.Config()) },
		Write: func(w io.Writer, _ *machine.Config, rows any) { WriteDynSched(w, rows.([]DynSchedRow)) },
	},
	{
		Name:  "degradation",
		Brief: "fault-injection rate vs slowdown per configuration (extension)",
		Run:   func(rc *RunContext) (any, error) { return DegradationCtx(rc.Context(), rc.Config()) },
		Write: func(w io.Writer, _ *machine.Config, rows any) { WriteDegradation(w, rows.([]DegradationRow)) },
	},
	{
		Name:  "feasibility",
		Brief: "silicon-cost model of the communication schemes (Sections 5-6)",
		Run: func(rc *RunContext) (any, error) {
			cfg := rc.Config()
			if cfg == nil {
				cfg = machine.Baseline()
			}
			return feasibility.Compare(cfg, feasibility.DefaultParams()), nil
		},
		Write: func(w io.Writer, cfg *machine.Config, rows any) {
			if cfg == nil {
				cfg = machine.Baseline()
			}
			feasibility.Write(w, cfg, rows.([]feasibility.Report))
		},
	},
	{
		Name:  "perf",
		Brief: "simulator throughput: cycles/sec, sweep wall-clock, allocs/cycle",
		Run:   func(rc *RunContext) (any, error) { return PerfCtx(rc.Context(), rc.Config()) },
		Write: func(w io.Writer, _ *machine.Config, rows any) { WritePerf(w, rows.(*PerfResult)) },
	},
}

// Registry returns all experiments in presentation order. The returned
// slice is shared; callers must not modify it.
func Registry() []Experiment { return registry }

// Register appends an experiment contributed by another package (used
// by packages that cannot live in this one without an import cycle,
// e.g. internal/fleet's fleetfair, which drives the service layer and
// the service layer imports experiments). Call from init; duplicate or
// unnamed registrations panic.
func Register(e Experiment) {
	if e.Name == "" || e.Run == nil {
		panic("experiments: Register: experiment needs a Name and a Run")
	}
	if _, ok := Lookup(e.Name); ok {
		panic(fmt.Sprintf("experiments: Register: duplicate experiment %q", e.Name))
	}
	registry = append(registry, e)
}

// Lookup finds an experiment by name.
func Lookup(name string) (*Experiment, bool) {
	for i := range registry {
		if registry[i].Name == name {
			return &registry[i], true
		}
	}
	return nil, false
}

// ExperimentNames lists the registered experiment names in order.
func ExperimentNames() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	return names
}

// UsageNames renders the names for flag help ("table2|figure4|...|all").
func UsageNames() string {
	return strings.Join(append(ExperimentNames(), "all"), "|")
}

// UnknownExperimentError is returned (by callers dispatching on names)
// when a requested experiment does not exist; its message lists the valid
// names so CLI and API users see the whole menu.
func UnknownExperimentError(name string) error {
	valid := ExperimentNames()
	sorted := append([]string(nil), valid...)
	sort.Strings(sorted)
	return fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(sorted, ", "))
}

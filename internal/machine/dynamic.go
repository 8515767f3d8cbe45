package machine

import "fmt"

// DynamicModel configures the optional dynamic-scheduling subsystem
// (internal/dynsched): a bounded out-of-order issue window, a branch
// predictor replacing the fixed branch-resolution charge, and a
// stride/delta memory prefetcher feeding the statistical memory model.
// The zero value disables all three, which is the paper-exact machine.
type DynamicModel struct {
	// Window is the per-thread issue-window depth in instruction words.
	// Zero disables out-of-order issue (paper-exact in-order buffers);
	// with Window = W, ready operations from up to W words may bypass a
	// stalled head as long as register presence-bit semantics and
	// per-thread memory ordering are preserved.
	Window int

	// Predictor selects the branch predictor: "" (none — conditional
	// branches stall the window until resolved), "bimodal" (2-bit
	// saturating counters), or "tage" (tagged-geometric with a bimodal
	// base). Requires Window >= 1: prediction speculates past the
	// unresolved branch inside the window.
	Predictor string

	// PredictorBits sizes the predictor tables: 1<<PredictorBits
	// counters for bimodal, and the base + each tagged table for TAGE.
	// Zero means 10 (1024 entries).
	PredictorBits int

	// SquashPenalty is the number of cycles the thread is suppressed
	// from issuing after a misprediction squash (re-fetch/re-decode
	// charge). Zero means 3.
	SquashPenalty int

	// PrefetchStreams is the number of PC-indexed entries in the stride
	// prefetcher's table. Zero disables prefetching.
	PrefetchStreams int

	// PrefetchDegree is the number of strided addresses prefetched
	// ahead once a stream's stride is confident. Zero means 4.
	PrefetchDegree int
}

// Enabled reports whether any dynamic-scheduling feature is on.
func (d DynamicModel) Enabled() bool {
	return d.Window > 0 || d.Predictor != "" || d.PrefetchStreams > 0
}

// Effective-default accessors: the zero value of each tunable maps to
// its documented default so configs stay terse.

// EffPredictorBits returns the effective predictor table size exponent.
func (d DynamicModel) EffPredictorBits() int {
	if d.PredictorBits == 0 {
		return 10
	}
	return d.PredictorBits
}

// EffSquashPenalty returns the effective misprediction penalty.
func (d DynamicModel) EffSquashPenalty() int {
	if d.SquashPenalty == 0 {
		return 3
	}
	return d.SquashPenalty
}

// EffPrefetchDegree returns the effective prefetch degree.
func (d DynamicModel) EffPrefetchDegree() int {
	if d.PrefetchDegree == 0 {
		return 4
	}
	return d.PrefetchDegree
}

// Validation bounds for the dynamic section.
const (
	// MaxDynWindow bounds the issue-window depth in instruction words.
	MaxDynWindow = 64
	// MaxPredictorBits bounds predictor table size (1<<bits entries).
	MaxPredictorBits = 20
	// MaxPrefetchStreams bounds the prefetcher's stream table.
	MaxPrefetchStreams = 4096
	// MaxPrefetchDegree bounds how far ahead a stream prefetches.
	MaxPrefetchDegree = 16
)

// validate checks the dynamic section; errors name the offending field
// in the JSON spelling ("machine: dynamic.window: ...").
func (d DynamicModel) validate(c *Config) error {
	if d.Window < 0 {
		return fmt.Errorf("machine: dynamic.window: %d (must be >= 0)", d.Window)
	}
	if d.Window > MaxDynWindow {
		return fmt.Errorf("machine: dynamic.window: %d (max %d)", d.Window, MaxDynWindow)
	}
	switch d.Predictor {
	case "", "bimodal", "tage":
	default:
		return fmt.Errorf("machine: dynamic.predictor: unknown predictor %q (want bimodal or tage)", d.Predictor)
	}
	if d.Predictor != "" && d.Window < 1 {
		return fmt.Errorf("machine: dynamic.predictor: requires dynamic.window >= 1 (speculation needs a window)")
	}
	if d.PredictorBits < 0 {
		return fmt.Errorf("machine: dynamic.predictor_bits: %d (must be >= 0)", d.PredictorBits)
	}
	if d.PredictorBits > MaxPredictorBits {
		return fmt.Errorf("machine: dynamic.predictor_bits: %d (max %d)", d.PredictorBits, MaxPredictorBits)
	}
	if d.PredictorBits > 0 && d.Predictor == "" {
		return fmt.Errorf("machine: dynamic.predictor_bits: set without dynamic.predictor")
	}
	if d.SquashPenalty < 0 {
		return fmt.Errorf("machine: dynamic.squash_penalty: %d (must be >= 0)", d.SquashPenalty)
	}
	if d.SquashPenalty > MaxLatency {
		return fmt.Errorf("machine: dynamic.squash_penalty: %d (max %d)", d.SquashPenalty, MaxLatency)
	}
	if d.SquashPenalty > 0 && d.Window < 1 {
		return fmt.Errorf("machine: dynamic.squash_penalty: set without dynamic.window")
	}
	if d.PrefetchStreams < 0 {
		return fmt.Errorf("machine: dynamic.prefetch_streams: %d (must be >= 0)", d.PrefetchStreams)
	}
	if d.PrefetchStreams > MaxPrefetchStreams {
		return fmt.Errorf("machine: dynamic.prefetch_streams: %d (max %d)", d.PrefetchStreams, MaxPrefetchStreams)
	}
	if d.PrefetchDegree < 0 {
		return fmt.Errorf("machine: dynamic.prefetch_degree: %d (must be >= 0)", d.PrefetchDegree)
	}
	if d.PrefetchDegree > MaxPrefetchDegree {
		return fmt.Errorf("machine: dynamic.prefetch_degree: %d (max %d)", d.PrefetchDegree, MaxPrefetchDegree)
	}
	if d.PrefetchDegree > 0 && d.PrefetchStreams == 0 {
		return fmt.Errorf("machine: dynamic.prefetch_degree: set without dynamic.prefetch_streams")
	}
	if d.Window > 0 {
		// The lock-step issue ablation requires whole-word issue and the
		// op-cache model charges per-head-word fetch stalls; both are
		// incompatible with word lookahead.
		if c.LockStepIssue {
			return fmt.Errorf("machine: dynamic.window: incompatible with lock_step_issue")
		}
		if c.OpCache.Entries > 0 {
			return fmt.Errorf("machine: dynamic.window: incompatible with op_cache")
		}
	}
	return nil
}

// Canonical normalizes the section for content addressing:
// disabled features zero their tunables, enabled features make the
// documented defaults explicit.
func (d DynamicModel) Canonical() DynamicModel {
	out := d
	if out.Window > 0 {
		out.SquashPenalty = out.EffSquashPenalty()
	} else {
		out.SquashPenalty = 0
	}
	if out.Predictor != "" {
		out.PredictorBits = out.EffPredictorBits()
	} else {
		out.PredictorBits = 0
	}
	if out.PrefetchStreams > 0 {
		out.PrefetchDegree = out.EffPrefetchDegree()
	} else {
		out.PrefetchDegree = 0
	}
	return out
}

// jsonDynamic is the on-disk form of the dynamic section. All fields are
// omitempty so a disabled section round-trips to nothing.
type jsonDynamic struct {
	Window          int    `json:"window,omitempty"`
	Predictor       string `json:"predictor,omitempty"`
	PredictorBits   int    `json:"predictor_bits,omitempty"`
	SquashPenalty   int    `json:"squash_penalty,omitempty"`
	PrefetchStreams int    `json:"prefetch_streams,omitempty"`
	PrefetchDegree  int    `json:"prefetch_degree,omitempty"`
}

// Dynamic-scheduling presets, composed with the paper's machine modes by
// Config.WithDynamic (experiments name the results CoupledOoO,
// CoupledTAGE, CoupledPrefetch, CoupledDyn).
var (
	// DynOoO: a 4-word out-of-order issue window, no speculation.
	DynOoO = DynamicModel{Window: 4}
	// DynTAGE: the window plus a TAGE branch predictor.
	DynTAGE = DynamicModel{Window: 4, Predictor: "tage"}
	// DynPrefetch: a 16-stream stride prefetcher, in-order issue.
	DynPrefetch = DynamicModel{PrefetchStreams: 16, PrefetchDegree: 4}
	// DynAll: all three mechanisms together.
	DynAll = DynamicModel{Window: 4, Predictor: "tage", PrefetchStreams: 16, PrefetchDegree: 4}
)

// WithDynamic returns a copy of c with the given dynamic-scheduling
// model.
func (c *Config) WithDynamic(d DynamicModel) *Config {
	out := c.Clone()
	out.Dynamic = d
	return out
}

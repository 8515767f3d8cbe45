package sim

import (
	"pcoup/internal/dynsched"
	"pcoup/internal/isa"
)

// This file holds the optional dynamic-scheduling subsystem's Sim-wide
// state (internal/dynsched): the branch predictor, the prefetcher, and
// their counters. Every thread runs on an issue window (issue.go); with
// cfg.Dynamic zero the window is one word deep, which is the paper's
// in-order machine, and nothing here exists.
//
// Design invariants (the event-driven skip core depends on all three):
//   - The per-thread issue window, the shared branch predictor, and the
//     prefetcher mutate only on real issue events or on cycles the
//     kernel already marks busy (retire/extend in frontier marks the
//     cycle busy). On a quiet cycle everything is a pure function of
//     frozen state, so skipped cycles cannot diverge from ticked ones.
//   - Speculative entries issue only pure compute ops; their register
//     effects are undone exactly on squash (writeback removal + old
//     value restore), so a misprediction is architecturally invisible.
//   - The prefetcher is timing-only: it never touches memory words or
//     presence bits, only attaches completion-time hints to demand
//     loads, so OoO issue and prefetch preserve oracle semantics.

// DynStats summarizes the dynamic-scheduling subsystem over a run.
type DynStats struct {
	// Branches counts resolved conditional branches; Mispredicts the
	// subset whose predicted successor was wrong; Squashes the
	// mispredictions that triggered a window squash (every mispredict).
	Branches    int64 `json:"branches"`
	Mispredicts int64 `json:"mispredicts"`
	Squashes    int64 `json:"squashes"`
	// SquashedOps counts speculatively issued operations undone by
	// squashes (wrong-path work).
	SquashedOps int64 `json:"squashed_ops"`
	// WindowIssued counts operations issued from behind the head word
	// (the out-of-order benefit; head issues are the in-order baseline).
	WindowIssued int64 `json:"window_issued"`
	// Prefetch carries the stride prefetcher's coverage and pollution
	// counters; nil when prefetching is off.
	Prefetch *dynsched.PrefetchStats `json:"prefetch,omitempty"`
}

// dynState is the Sim-wide dynamic-scheduling state: one predictor and
// one prefetcher shared by all threads (they model per-node hardware),
// plus the run's counters.
type dynState struct {
	pred  dynsched.Predictor
	pref  *dynsched.Prefetcher
	stats DynStats
}

// specUndo reverts one speculative register write: drop its queued
// writeback (or overwrite its drained value) and restore the previous
// register contents and presence bit.
type specUndo struct {
	reg   isa.RegRef
	old   isa.Value
	wbSeq int64
}

// initDyn builds the subsystem from cfg.Dynamic; called by New before
// the main thread spawns so the first window seeds correctly.
func (s *Sim) initDyn() error {
	d := s.cfg.Dynamic
	if !d.Enabled() {
		return nil
	}
	s.dyn = &dynState{}
	if d.Predictor != "" {
		p, err := dynsched.NewPredictor(d.Predictor, d.EffPredictorBits(), s.cfg.Seed)
		if err != nil {
			return err
		}
		s.dyn.pred = p
	}
	if d.PrefetchStreams > 0 {
		mm := s.cfg.Memory
		s.dyn.pref = dynsched.NewPrefetcher(dynsched.PrefetchConfig{
			Streams:    d.PrefetchStreams,
			Degree:     d.EffPrefetchDegree(),
			HitLatency: mm.HitLatency,
			MissRate:   mm.MissRate,
			PenaltyMin: mm.MissPenaltyMin,
			PenaltyMax: mm.MissPenaltyMax,
			Words:      s.mem.Size(),
			Banks:      mm.Banks,
			Seed:       s.cfg.Seed,
		})
	}
	return nil
}

// dynPred returns the shared predictor (nil when prediction is off).
func (s *Sim) dynPred() dynsched.Predictor {
	if s.dyn == nil {
		return nil
	}
	return s.dyn.pred
}

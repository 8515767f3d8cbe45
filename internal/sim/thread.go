package sim

import (
	"pcoup/internal/dynsched"
	"pcoup/internal/isa"
	"pcoup/internal/regfile"
)

// Thread is one active instruction stream. Each thread has its own
// instruction pointer and logical register set (distributed over the
// clusters) but shares the function units, interconnect, and memory with
// all other threads.
type Thread struct {
	ID       int
	Priority int // lower value wins arbitration; equals spawn order
	SegIdx   int
	Seg      *isa.ThreadCode
	Regs     regfile.Set
	// regBase is the flat index of each cluster's register 0 in Regs
	// (regfile.AppendBases), shared by every thread of the segment.
	regBase []int

	// IP is the word at the head of the thread's issue window (the
	// architectural frontier); len(Seg.Instrs) once the thread ran off
	// its code.
	IP int

	Halted  bool
	SpawnAt int64 // cycle the thread became active
	HaltAt  int64 // cycle the thread issued halt

	OpsIssued int64
	// lastIssue is the most recent cycle in which the thread issued at
	// least one operation (stall attribution's "issued" test).
	lastIssue int64
	// stalls accumulates the thread's per-cycle classifications; nil
	// unless stall attribution is enabled.
	stalls *StallBreakdown
	// storesOut counts the thread's ordinary stores still in flight in
	// the memory system. Producing stores (SyncProduce) have release
	// semantics: they issue only once this count reaches zero, so a
	// completion flag is never visible before the data it covers. Fork
	// waits likewise, so a child always observes memory the parent wrote
	// before spawning it.
	storesOut int
	// syncLoadsOut counts outstanding synchronizing loads (waitfull or
	// consume). Such loads are acquire fences: no later memory operation
	// of this thread issues until they complete, so data guarded by a
	// flag is never read before the flag.
	syncLoadsOut int
	// stalled caches "no unissued operation in the window is ready":
	// issue arbitration skips the thread until an event that can change
	// its readiness clears the flag — a register writeback, a
	// memory completion, a frontier move, or any thread halting, whether
	// its halt issued or it ran off the end of its code (halts free a
	// thread slot, which is what a blocked fork waits on).
	// Readiness depends on nothing else, so skipping a stalled thread
	// cannot change any arbitration outcome.
	stalled bool
	// squashUntil suppresses issue through this cycle after a
	// misprediction (re-fetch/re-decode charge).
	squashUntil int64

	// win is the thread's issue window: cfg.Dynamic.Window words deep,
	// or one word — the paper's in-order frontier — when that is 0. It
	// stays the zero (empty) window for a thread whose code had no
	// operation to start at.
	win dynsched.Window
	// specIssued counts ops issued from speculative entries since the
	// last commit or squash.
	specIssued int64
	// undo records how to revert speculative register writes, in issue
	// order; applied in reverse on squash.
	undo []specUndo
}

// ThreadStats is the per-thread summary reported in a Result.
type ThreadStats struct {
	ID        int
	Segment   string
	SpawnAt   int64
	HaltAt    int64
	OpsIssued int64
	// PeakRegs is the peak register usage per cluster.
	PeakRegs []int
	// Stalls is the thread's per-cycle classification histogram; nil
	// unless stall attribution was enabled. Its Total() equals
	// HaltAt - SpawnAt (one classification per active cycle).
	Stalls *StallBreakdown
}

package dynsched

import (
	"fmt"

	"pcoup/internal/isa"
)

// MaxSlots bounds the unit slots of a decoded word: a word's operations
// are tracked as bits of one uint64.
const MaxSlots = 64

// Sentinel successor IPs for window entries.
const (
	// IPEnd marks execution running off the end of the segment (or an
	// explicit halt): retiring an entry with this successor halts the
	// thread.
	IPEnd = -1
	// IPUnknown marks a conditional branch whose direction is neither
	// resolved nor predicted yet; extension stops here.
	IPUnknown = -2
)

// Shape is the static control shape of one instruction word. Decode
// computes a segment's shapes once; every window over the segment shares
// them, so fetching a word copies its shape instead of re-decoding it.
type Shape struct {
	Ops      []*isa.Op // the word's operations, by unit slot (nil = empty slot)
	Mask     uint64    // bit slot set for every non-nil op (0: empty word, skipped)
	BrSlot   int       // slot of the word's conditional branch, -1 if none
	Barrier  bool      // word forks, halts, or has ambiguous control: no lookahead past it
	Resolved bool      // successor known at fetch
	NextIP   int       // successor word, IPEnd, or IPUnknown
	Target   int       // taken successor of the conditional branch (empty words skipped)
}

// Shapes is a segment's decoded words, indexed by IP.
type Shapes []Shape

// Decode decodes the control shape of every word of seg. Every op must
// sit below slot MaxSlots, as on any validated machine.
func Decode(seg *isa.ThreadCode) Shapes {
	sh := make(Shapes, len(seg.Instrs))
	for ip := range seg.Instrs {
		sh[ip].Ops = seg.Instrs[ip].Ops
		for slot, op := range sh[ip].Ops {
			if op == nil {
				continue
			}
			if slot >= MaxSlots {
				panic(fmt.Sprintf("dynsched: %s word %d: op in slot %d (max %d slots)", seg.Name, ip, slot, MaxSlots))
			}
			sh[ip].Mask |= 1 << slot
		}
	}
	// Successors skip empty words, so control decodes once every word's
	// op count is known.
	for ip := range seg.Instrs {
		s := &sh[ip]
		s.BrSlot = -1
		ctrl := 0
		for slot, op := range seg.Instrs[ip].Ops {
			if op == nil {
				continue
			}
			switch op.Code {
			case isa.OpJmp:
				ctrl++
				s.NextIP = sh.EffIP(op.Target)
				s.Resolved = true
			case isa.OpBt, isa.OpBf:
				ctrl++
				s.BrSlot = slot
				s.Target = sh.EffIP(op.Target)
				s.NextIP = IPUnknown
			case isa.OpFork:
				// Forks spawn at issue; keep them at the head so
				// thread-slot arbitration stays in program order.
				s.Barrier = true
			case isa.OpHalt:
				s.Barrier = true
				s.NextIP = IPEnd
				s.Resolved = true
				ctrl++
			}
		}
		if ctrl == 0 {
			s.NextIP = sh.EffIP(ip + 1)
			s.Resolved = true
		} else if ctrl > 1 {
			// Ambiguous multi-branch word (not emitted by our compiler):
			// degrade to in-order handling behind a barrier; its
			// successor is fixed as its control ops issue.
			s.Barrier = true
		}
	}
	return sh
}

// EffIP returns the first word at or after from that contains at least
// one operation, mirroring the in-order core's empty-word fallthrough.
// IPEnd means execution runs off the segment.
func (sh Shapes) EffIP(from int) int {
	for ip := from; ip < len(sh); ip++ {
		if sh[ip].Mask != 0 {
			return ip
		}
	}
	return IPEnd
}

// Entry is one instruction word in a thread's issue window. The head
// entry (index 0) is the architectural frontier.
type Entry struct {
	IP  int
	Ops []*isa.Op // the word's operations, by unit slot
	// Unissued has bit slot set for every operation not yet issued; the
	// head retires when it reaches zero. Scans walk its set bits instead
	// of every slot of the word.
	Unissued uint64
	// Taken is the slot of the word's last taken control op, -1 if none:
	// a later not-taken branch of the same word keeps that successor.
	Taken     int
	Spec      bool // fetched past an unresolved prediction: wrong-path candidate
	Resolved  bool // successor (NextIP) is architecturally known
	Predicted bool // NextIP was chosen by the branch predictor
	PredTaken bool
	BrSlot    int  // slot of the word's conditional branch, -1 if none
	Barrier   bool // word forks, halts, or has ambiguous control: no lookahead past it
	NextIP    int  // successor word, IPEnd, or IPUnknown
	Target    int  // taken successor of the conditional branch (empty words skipped)
}

// Issue marks slot issued.
func (e *Entry) Issue(slot int) {
	e.Unissued &^= 1 << slot
}

// Window is a per-thread lookahead buffer of up to cap instruction
// words. Entries are fetched along the (possibly predicted) control
// path; the simulator issues ready operations from any entry subject to
// register-hazard and memory-order checks, and retires at most one
// fully-issued head per cycle. At depth one the window is the in-order
// core's current word. The zero Window holds nothing and never fetches;
// Init prepares it, after which it must not be copied (its lists may
// point into it).
type Window struct {
	Entries []*Entry
	// A one-word window keeps its entry and both lists inline, so it
	// costs no allocation beyond its owner's (and its head sits beside
	// the list the issue scan reads first).
	one    [1]Entry
	onePtr [2]*Entry
	// free holds the entries not in the window, recycled, so a window
	// allocates nothing after Init.
	free   []*Entry
	shapes Shapes
	pcBase uint64
	cap    int
}

// Init empties w and sizes it to capWords words over a segment's
// decoded shapes. pcBase disambiguates branch PCs across segments (the
// simulator passes segIdx<<20).
func (w *Window) Init(shapes Shapes, capWords int, pcBase uint64) {
	capWords = max(capWords, 1)
	*w = Window{shapes: shapes, pcBase: pcBase, cap: capWords}
	entries, ptrs := w.one[:], w.onePtr[:]
	if capWords > 1 {
		entries = make([]Entry, capWords)
		ptrs = make([]*Entry, 2*capWords)
	}
	w.Entries = ptrs[:0:capWords]
	w.free = ptrs[capWords:capWords]
	for i := range entries {
		w.free = append(w.free, &entries[i])
	}
}

// Cap returns the window depth in words.
func (w *Window) Cap() int { return w.cap }

// PC returns the global branch-predictor PC for a word of this segment.
func (w *Window) PC(ip int) uint64 { return w.pcBase | uint64(ip) }

// Head returns the architectural head entry (nil when empty).
func (w *Window) Head() *Entry {
	if len(w.Entries) == 0 {
		return nil
	}
	return w.Entries[0]
}

// EffIP is Shapes.EffIP over the window's segment.
func (w *Window) EffIP(from int) int { return w.shapes.EffIP(from) }

// Fetch appends an entry for word ip, built from its decoded shape in a
// free entry; the window must not be full.
func (w *Window) Fetch(ip int, spec bool) *Entry {
	n := len(w.free) - 1
	e := w.free[n]
	w.free = w.free[:n]
	w.Entries = append(w.Entries, w.refill(e, ip, spec))
	return e
}

// refill rebuilds e as a fresh entry for word ip.
func (w *Window) refill(e *Entry, ip int, spec bool) *Entry {
	sh := &w.shapes[ip]
	e.IP, e.Ops, e.Unissued, e.Taken = ip, sh.Ops, sh.Mask, -1
	e.Spec, e.Resolved, e.Predicted, e.PredTaken = spec, sh.Resolved, false, false
	e.BrSlot, e.Barrier, e.NextIP, e.Target = sh.BrSlot, sh.Barrier, sh.NextIP, sh.Target
	return e
}

// hasUnresolvedPrediction reports whether a predicted branch is still
// in flight. At most one prediction is outstanding at a time.
func (w *Window) hasUnresolvedPrediction() bool {
	for _, e := range w.Entries {
		if e.Predicted && !e.Resolved {
			return true
		}
	}
	return false
}

// Extend fetches words along the known (or predicted) control path
// until the window is full, a barrier or unresolved branch blocks it,
// or the code ends. It is idempotent at maximal extension and Predict
// is pure, so calling it on quiet cycles never changes state — the
// event-driven skip core depends on that. Returns whether anything
// changed.
func (w *Window) Extend(pred Predictor) bool {
	changed := false
	for len(w.Entries) > 0 && len(w.Entries) < w.cap {
		last := w.Entries[len(w.Entries)-1]
		if last.Barrier {
			break
		}
		if last.NextIP == IPUnknown {
			if pred == nil || last.BrSlot < 0 || w.hasUnresolvedPrediction() {
				break
			}
			last.Predicted = true
			last.PredTaken = pred.Predict(w.PC(last.IP))
			if last.PredTaken {
				last.NextIP = last.Target
			} else {
				last.NextIP = w.EffIP(last.IP + 1)
			}
			changed = true
			continue
		}
		if last.NextIP < 0 {
			break
		}
		w.Fetch(last.NextIP, w.hasUnresolvedPrediction())
		changed = true
	}
	return changed
}

// HeadDone reports whether every operation of the head word has issued.
func (w *Window) HeadDone() bool {
	return len(w.Entries) > 0 && w.Entries[0].Unissued == 0
}

// RetireHead pops the fully-issued head (the caller checks HeadDone;
// the head's successor is always resolved by then, since branches
// resolve at issue). When the window empties, it reseeds from the
// retired word's successor. Returns true when the thread ran off its
// code (implicit halt).
func (w *Window) RetireHead() bool {
	head := w.Entries[0]
	if len(w.Entries) == 1 && head.NextIP >= 0 {
		w.refill(head, head.NextIP, false) // the successor reuses the entry in place
		return false
	}
	copy(w.Entries, w.Entries[1:])
	w.Entries[len(w.Entries)-1] = nil
	w.Entries = w.Entries[:len(w.Entries)-1]
	w.free = append(w.free, head)
	return len(w.Entries) == 0
}

// CommitSpec clears the speculative mark on every entry after a correct
// prediction: the fetched path is the architectural path.
func (w *Window) CommitSpec() {
	for _, e := range w.Entries {
		e.Spec = false
	}
}

// SquashAfter drops every entry after index k (the mispredicted
// branch's entry). All dropped entries are speculative by construction:
// only one prediction is outstanding, and everything fetched past it is
// marked Spec.
func (w *Window) SquashAfter(k int) {
	for i := k + 1; i < len(w.Entries); i++ {
		w.free = append(w.free, w.Entries[i])
		w.Entries[i] = nil
	}
	w.Entries = w.Entries[:k+1]
}

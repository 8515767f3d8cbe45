package dynsched

import (
	"testing"

	"pcoup/internal/isa"
)

func TestBimodalTrains(t *testing.T) {
	b := newBimodal(4)
	pc := uint64(3)
	if b.Predict(pc) {
		t.Error("fresh bimodal predicts taken; init is weakly not-taken")
	}
	b.Update(pc, true)
	if !b.Predict(pc) {
		t.Error("one taken update should flip a weakly-not-taken counter")
	}
	b.Update(pc, true) // saturate at 3
	b.Update(pc, false)
	if !b.Predict(pc) {
		t.Error("strongly-taken counter should survive one not-taken")
	}
}

func TestTAGELearnsHistoryPattern(t *testing.T) {
	// A period-4 pattern (T T T N) at one PC: unlearnable by a bimodal
	// counter (3:1 bias keeps it saturated taken, 25% mispredicts) but
	// exactly learnable from 4 bits of history.
	pattern := []bool{true, true, true, false}
	tage := newTAGE(10, 42)
	bi := newBimodal(10)
	pc := uint64(0x55)
	warm := 400
	var tageMiss, biMiss int
	for i := 0; i < 2000; i++ {
		taken := pattern[i%len(pattern)]
		if i >= warm {
			if tage.Predict(pc) != taken {
				tageMiss++
			}
			if bi.Predict(pc) != taken {
				biMiss++
			}
		}
		tage.Update(pc, taken)
		bi.Update(pc, taken)
	}
	if tageMiss >= biMiss {
		t.Errorf("TAGE mispredicted %d of 1600, bimodal %d; TAGE should win on a history pattern", tageMiss, biMiss)
	}
	if tageMiss > 160 { // <10% after warmup
		t.Errorf("TAGE mispredicted %d of 1600 on a period-4 pattern", tageMiss)
	}
}

func TestPredictorStateRoundTrip(t *testing.T) {
	for _, kind := range []string{"bimodal", "tage"} {
		t.Run(kind, func(t *testing.T) {
			p, err := NewPredictor(kind, 8, 7)
			if err != nil {
				t.Fatal(err)
			}
			// Drive a deterministic but irregular training sequence.
			for i := 0; i < 500; i++ {
				pc := uint64(i*i) % 97
				p.Update(pc, i%3 == 0 || i%7 == 0)
			}
			q, err := NewPredictor(kind, 8, 7)
			if err != nil {
				t.Fatal(err)
			}
			if err := q.Restore(p.State()); err != nil {
				t.Fatal(err)
			}
			// Identical predictions and identical evolution afterwards.
			for i := 0; i < 200; i++ {
				pc := uint64(i * 13)
				if p.Predict(pc) != q.Predict(pc) {
					t.Fatalf("prediction diverges at pc %d after restore", pc)
				}
				p.Update(pc, i%2 == 0)
				q.Update(pc, i%2 == 0)
			}
		})
	}
	p, _ := NewPredictor("bimodal", 8, 0)
	q, _ := NewPredictor("tage", 8, 0)
	if err := p.Restore(q.State()); err == nil {
		t.Error("restoring tage state into bimodal should fail")
	}
	if _, err := NewPredictor("gshare", 8, 0); err == nil {
		t.Error("unknown predictor kind should fail")
	}
}

func TestPrefetcherStride(t *testing.T) {
	p := NewPrefetcher(PrefetchConfig{
		Streams: 8, Degree: 2, HitLatency: 1,
		Words: 4096, Banks: 4, Seed: 1,
	})
	pc := uint64(0x40)
	now := int64(0)
	// Walk a stride-3 stream; after two confirming deltas the prefetcher
	// must run ahead.
	for i := int64(0); i < 8; i++ {
		addr := 100 + 3*i
		if hit, _ := p.Lookup(addr, now); hit && i < 3 {
			t.Errorf("access %d hit before the stride was confident", i)
		}
		p.Observe(pc, addr, now)
		now += 2
	}
	st := p.Stats()
	if st.Issued == 0 {
		t.Fatal("no prefetches issued on a steady stride")
	}
	if st.Hits == 0 {
		t.Error("no demand load hit a prefetched line")
	}
	if st.Demand != 8 {
		t.Errorf("demand = %d, want 8", st.Demand)
	}
	// Out-of-image targets must be dropped.
	p2 := NewPrefetcher(PrefetchConfig{Streams: 4, Degree: 4, HitLatency: 1, Words: 16, Banks: 1, Seed: 1})
	for i := int64(0); i < 5; i++ {
		p2.Observe(7, 10+i, int64(i))
	}
	for _, l := range p2.buf {
		if l.valid && (l.addr < 0 || l.addr >= 16) {
			t.Errorf("prefetch outside memory image: addr %d", l.addr)
		}
	}
}

func TestPrefetcherPollutionCount(t *testing.T) {
	p := NewPrefetcher(PrefetchConfig{Streams: 2, Degree: 2, HitLatency: 1, Words: 1 << 20, Banks: 1, Seed: 9})
	// Two interleaved strided streams overflow the 4-line buffer so
	// never-hit lines get evicted and counted useless.
	for i := int64(0); i < 64; i++ {
		p.Observe(1, 100+8*i, i)
		p.Observe(2, 5000+16*i, i)
	}
	if p.Stats().Useless == 0 {
		t.Error("no pollution counted despite guaranteed evictions of unhit lines")
	}
}

func TestPrefetcherStateRoundTrip(t *testing.T) {
	mk := func() *Prefetcher {
		return NewPrefetcher(PrefetchConfig{
			Streams: 8, Degree: 3, HitLatency: 2, MissRate: 0.3,
			PenaltyMin: 10, PenaltyMax: 40, Words: 1 << 16, Banks: 4, Seed: 77,
		})
	}
	p := mk()
	for i := int64(0); i < 40; i++ {
		p.Lookup(200+5*i, i)
		p.Observe(0x9, 200+5*i, i)
	}
	q := mk()
	if err := q.Restore(p.State()); err != nil {
		t.Fatal(err)
	}
	// Same evolution afterwards (exercises the restored rng stream).
	for i := int64(40); i < 80; i++ {
		ph, pr := p.Lookup(200+5*i, i)
		qh, qr := q.Lookup(200+5*i, i)
		if ph != qh || pr != qr {
			t.Fatalf("lookup diverges at %d: (%v,%d) vs (%v,%d)", i, ph, pr, qh, qr)
		}
		p.Observe(0x9, 200+5*i, i)
		q.Observe(0x9, 200+5*i, i)
	}
	a, b := p.Stats(), q.Stats()
	if a.Issued != b.Issued || a.Hits != b.Hits || a.Late != b.Late || a.Useless != b.Useless {
		t.Errorf("stats diverge after restore: %+v vs %+v", a, b)
	}
	if err := q.Restore(&PrefetcherState{}); err == nil {
		t.Error("shape-mismatched restore should fail")
	}
}

// seg builds a tiny thread segment for window tests. Ops only need Code
// and Target; slot 0 is compute, slot 1 control.
func seg(words ...[]*isa.Op) *isa.ThreadCode {
	tc := &isa.ThreadCode{Name: "w"}
	for _, ops := range words {
		tc.Instrs = append(tc.Instrs, isa.Instruction{Ops: ops})
	}
	return tc
}

func add() *isa.Op { return &isa.Op{Code: isa.OpAdd} }
func bt(ip int) *isa.Op {
	return &isa.Op{Code: isa.OpBt, Target: ip}
}

// constPred predicts a fixed direction.
type constPred bool

func (c constPred) Predict(uint64) bool           { return bool(c) }
func (c constPred) Update(uint64, bool)           {}
func (c constPred) State() *PredictorState        { return nil }
func (c constPred) Restore(*PredictorState) error { return nil }

func TestWindowExtendStopsAtUnresolvedBranch(t *testing.T) {
	// 0: add; 1: add+bt->0; 2: add
	code := seg(
		[]*isa.Op{add()},
		[]*isa.Op{add(), bt(0)},
		[]*isa.Op{add()},
	)
	var w Window
	w.Init(Decode(code), 4, 0)
	w.Fetch(0, false)
	w.Extend(nil)
	// No predictor: fetch stops after the branch word.
	if len(w.Entries) != 2 {
		t.Fatalf("window holds %d entries, want 2 (stop at unresolved branch)", len(w.Entries))
	}
	if w.Entries[1].NextIP != IPUnknown || w.Entries[1].BrSlot != 1 {
		t.Errorf("branch word decoded wrong: %+v", w.Entries[1])
	}
	// With a taken predictor the fetch continues speculatively at the
	// target, and everything past the branch is marked Spec.
	var w2 Window
	w2.Init(Decode(code), 4, 0)
	w2.Fetch(0, false)
	w2.Extend(constPred(true))
	if len(w2.Entries) != 4 {
		t.Fatalf("predicted window holds %d entries, want 4", len(w2.Entries))
	}
	if !w2.Entries[1].Predicted || !w2.Entries[1].PredTaken || w2.Entries[1].NextIP != 0 {
		t.Errorf("prediction not recorded: %+v", w2.Entries[1])
	}
	if w2.Entries[0].Spec || w2.Entries[1].Spec || !w2.Entries[2].Spec || !w2.Entries[3].Spec {
		t.Error("speculative marking wrong across predicted branch")
	}
	// Only one outstanding prediction: entry 3 is the branch word again
	// and must NOT be predicted while entry 1 is unresolved.
	if w2.Entries[3].IP == 1 && w2.Entries[3].Predicted {
		t.Error("second prediction made while the first is outstanding")
	}
	// Idempotence at maximal extension (the skip core depends on it).
	if w2.Extend(constPred(true)) {
		t.Error("Extend reported change at maximal extension")
	}
}

func TestWindowRetireAndSquash(t *testing.T) {
	code := seg(
		[]*isa.Op{add()},
		[]*isa.Op{add(), bt(0)},
		[]*isa.Op{add()},
	)
	var w Window
	w.Init(Decode(code), 4, 0)
	w.Fetch(0, false)
	w.Extend(constPred(true))
	// Issue word 0's single op and retire it.
	w.Entries[0].Issue(0)
	if !w.HeadDone() {
		t.Fatal("head with all ops issued not done")
	}
	if w.RetireHead() {
		t.Fatal("retire of non-final word reported halt")
	}
	if w.Head().IP != 1 {
		t.Fatalf("head after retire is %d, want 1", w.Head().IP)
	}
	// Mispredict: squash everything after the branch entry (now index 0).
	w.SquashAfter(0)
	if len(w.Entries) != 1 {
		t.Fatalf("squash left %d entries, want 1", len(w.Entries))
	}
	// Resolve not-taken and refetch down the fall-through path.
	w.Entries[0].NextIP = 2
	w.Entries[0].Resolved = true
	w.Entries[0].Predicted = false
	w.Extend(nil)
	if len(w.Entries) != 2 || w.Entries[1].IP != 2 {
		t.Fatalf("refetch after squash wrong: %d entries", len(w.Entries))
	}
	if w.Entries[1].Spec {
		t.Error("post-resolution fetch still marked speculative")
	}
	// Run off the end: word 2 falls through to nothing.
	w.Entries[0].Issue(0)
	w.Entries[0].Issue(1)
	if w.RetireHead() {
		t.Fatal("halt reported while a successor entry exists")
	}
	w.Entries[0].Issue(0)
	if !w.RetireHead() {
		t.Error("running off the end must report implicit halt")
	}
}

func TestWindowBarriers(t *testing.T) {
	code := seg(
		[]*isa.Op{{Code: isa.OpFork, Target: 1}},
		[]*isa.Op{add()},
	)
	var w Window
	w.Init(Decode(code), 4, 0)
	w.Fetch(0, false)
	w.Extend(nil)
	if len(w.Entries) != 1 {
		t.Fatalf("fetch crossed a fork barrier: %d entries", len(w.Entries))
	}
	if !w.Entries[0].Barrier {
		t.Error("fork word not marked barrier")
	}
	halt := seg([]*isa.Op{{Code: isa.OpHalt}})
	var wh Window
	wh.Init(Decode(halt), 4, 0)
	wh.Fetch(0, false)
	wh.Extend(nil)
	if len(wh.Entries) != 1 || wh.Entries[0].NextIP != IPEnd {
		t.Error("halt word should end the fetch path")
	}
}

// TestUnissuedMask: Decode's Mask has a bit for exactly the non-nil ops
// of each word, Issue clears exactly the issued slot's bit, and both a
// refill in place (RetireHead of a one-entry window) and a fresh fetch
// start from the full mask again.
func TestUnissuedMask(t *testing.T) {
	code := seg(
		[]*isa.Op{add(), nil, add()},
		[]*isa.Op{nil, add()},
		[]*isa.Op{nil, nil},
		[]*isa.Op{add(), add(), bt(0)},
	)
	sh := Decode(code)
	for ip, w := range code.Instrs {
		var want uint64
		for slot, op := range w.Ops {
			if op != nil {
				want |= 1 << slot
			}
		}
		if sh[ip].Mask != want {
			t.Errorf("word %d: Mask = %b, want %b", ip, sh[ip].Mask, want)
		}
	}
	if got := sh.EffIP(2); got != 3 {
		t.Errorf("EffIP(2) = %d, want 3 (word 2 is empty)", got)
	}

	var w Window
	w.Init(sh, 1, 0)
	e := w.Fetch(0, false)
	if e.Unissued != sh[0].Mask {
		t.Fatalf("fetched Unissued = %b, want %b", e.Unissued, sh[0].Mask)
	}
	e.Issue(2)
	if e.Unissued != 0b001 {
		t.Fatalf("after Issue(2): Unissued = %b, want 001", e.Unissued)
	}
	if w.HeadDone() {
		t.Fatal("head done with slot 0 unissued")
	}
	e.Issue(0)
	if !w.HeadDone() {
		t.Fatal("head not done with every op issued")
	}
	// A one-entry window refills its entry in place with the successor.
	if w.RetireHead() {
		t.Fatal("retire reported halt with a successor word")
	}
	if h := w.Head(); h != e || h.IP != 1 || h.Unissued != sh[1].Mask {
		t.Fatalf("refilled head: ip %d Unissued %b, want ip 1 Unissued %b", h.IP, h.Unissued, sh[1].Mask)
	}

	// A deeper window recycles retired entries through Fetch.
	var d Window
	d.Init(sh, 2, 0)
	d.Fetch(0, false)
	d.Extend(nil)
	if len(d.Entries) != 2 || d.Entries[1].IP != 1 {
		t.Fatalf("window holds %d entries, want words 0 and 1", len(d.Entries))
	}
	d.Entries[0].Issue(0)
	d.Entries[0].Issue(2)
	if d.RetireHead() {
		t.Fatal("retire reported halt with an entry left")
	}
	d.Extend(nil)
	if len(d.Entries) != 2 || d.Entries[1].IP != 3 || d.Entries[1].Unissued != sh[3].Mask {
		t.Fatalf("refetched entry: %+v, want word 3 with Unissued %b", d.Entries[len(d.Entries)-1], sh[3].Mask)
	}
}

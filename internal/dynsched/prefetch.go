package dynsched

import (
	"fmt"

	"pcoup/internal/rng"
)

// PrefetchConfig sizes the stride prefetcher and mirrors the statistical
// memory model it front-runs: prefetch completion times are drawn from
// the same hit/miss distribution, but from the prefetcher's own rng
// stream so the demand stream's draws are untouched.
type PrefetchConfig struct {
	Streams    int // PC-indexed stride table entries
	Degree     int // addresses prefetched ahead per confident access
	HitLatency int
	MissRate   float64
	PenaltyMin int
	PenaltyMax int
	Words      int64 // memory image size; prefetches outside are dropped
	Banks      int
	Seed       uint64
}

// PrefetchStats counts coverage and pollution. Demand is the number of
// observed loads; Hits are demand loads that found a timely prefetch
// (ready within a hit latency), Late found one still in flight, Useless
// counts buffer entries evicted without ever being hit.
type PrefetchStats struct {
	Demand  int64   `json:"demand"`
	Issued  int64   `json:"issued"`
	Hits    int64   `json:"hits"`
	Late    int64   `json:"late"`
	Useless int64   `json:"useless"`
	ByBank  []int64 `json:"by_bank,omitempty"`
}

// stream is one entry of the PC-indexed stride table.
type stream struct {
	tag  uint64 // load PC (valid when touched)
	last int64  // last observed address
	strd int64  // current stride hypothesis
	conf int    // 0..3; prefetch at >= 2
	used bool
}

// pline is one prefetch buffer slot: an address and the cycle its data
// arrives. hit marks it as having served at least one demand load.
type pline struct {
	addr  int64
	ready int64
	hit   bool
	valid bool
}

// Prefetcher is a PC-indexed stride/delta prefetcher with a small FIFO
// prefetch buffer. It is timing-only: it never touches memory words or
// presence bits, so out-of-order or speculative issue cannot observe a
// prefetch architecturally (presence-bit safety by construction).
type Prefetcher struct {
	cfg   PrefetchConfig
	tab   []stream
	buf   []pline
	next  int // FIFO cursor into buf
	stats PrefetchStats
	rnd   *rng.Source
}

// NewPrefetcher builds the prefetcher. Streams and Degree must be
// positive (machine validation guarantees it).
func NewPrefetcher(cfg PrefetchConfig) *Prefetcher {
	bufCap := cfg.Streams * cfg.Degree
	if bufCap > 256 {
		bufCap = 256
	}
	p := &Prefetcher{
		cfg: cfg,
		tab: make([]stream, cfg.Streams),
		buf: make([]pline, bufCap),
		rnd: rng.New(cfg.Seed ^ 0x9e37_79b9_7f4a_7c15),
	}
	if cfg.Banks > 0 {
		p.stats.ByBank = make([]int64, cfg.Banks)
	}
	return p
}

// Stats returns a copy of the counters.
func (p *Prefetcher) Stats() PrefetchStats {
	out := p.stats
	out.ByBank = append([]int64(nil), p.stats.ByBank...)
	return out
}

// latency draws a completion latency from the mirrored memory
// distribution (same shape as memsys's demand draw, independent stream).
func (p *Prefetcher) latency() int64 {
	c := &p.cfg
	if c.MissRate > 0 && p.rnd.Float64() < c.MissRate {
		pen := c.PenaltyMin
		if c.PenaltyMax > c.PenaltyMin {
			pen = p.rnd.Range(c.PenaltyMin, c.PenaltyMax)
		}
		return int64(c.HitLatency + pen)
	}
	return int64(c.HitLatency)
}

// find returns the buffer slot holding addr, or -1.
func (p *Prefetcher) find(addr int64) int {
	for i := range p.buf {
		if p.buf[i].valid && p.buf[i].addr == addr {
			return i
		}
	}
	return -1
}

// Lookup consults the prefetch buffer for a demand load issued at now.
// It returns (true, readyCycle) on a buffer hit; the caller forwards
// the hint to the memory model, which guarantees the demand request is
// never slower than without the prefetch. The entry is not consumed:
// like a small cache line, later loads of the same address keep hitting.
func (p *Prefetcher) Lookup(addr, now int64) (bool, int64) {
	p.stats.Demand++
	i := p.find(addr)
	if i < 0 {
		return false, 0
	}
	p.buf[i].hit = true
	if p.buf[i].ready-now <= int64(p.cfg.HitLatency) {
		p.stats.Hits++
	} else {
		p.stats.Late++
	}
	return true, p.buf[i].ready
}

// Observe trains the stride table on a demand load of addr by the load
// at pc, and issues up to Degree prefetches once the stream's stride is
// confident. Called only on real issue events, so the event-driven skip
// core never needs to tick the prefetcher.
func (p *Prefetcher) Observe(pc uint64, addr, now int64) {
	s := &p.tab[pc%uint64(len(p.tab))]
	if !s.used || s.tag != pc {
		*s = stream{tag: pc, last: addr, used: true}
		return
	}
	d := addr - s.last
	switch {
	case d == s.strd && d != 0:
		if s.conf < 3 {
			s.conf++
		}
	case s.conf > 0:
		s.conf--
	default:
		s.strd = d
	}
	s.last = addr
	if s.conf < 2 || s.strd == 0 {
		return
	}
	for i := 1; i <= p.cfg.Degree; i++ {
		a := addr + s.strd*int64(i)
		if a < 0 || a >= p.cfg.Words {
			break
		}
		if p.find(a) >= 0 {
			continue
		}
		p.insert(a, now+p.latency())
	}
}

// insert places a prefetch in the FIFO buffer, evicting the oldest slot
// and counting pollution when the victim never served a hit.
func (p *Prefetcher) insert(addr, ready int64) {
	v := &p.buf[p.next]
	if v.valid && !v.hit {
		p.stats.Useless++
	}
	*v = pline{addr: addr, ready: ready, valid: true}
	p.next = (p.next + 1) % len(p.buf)
	p.stats.Issued++
	if len(p.stats.ByBank) > 0 {
		p.stats.ByBank[addr%int64(len(p.stats.ByBank))]++
	}
}

// PrefetcherState is the JSON-encodable snapshot of all mutable state.
type PrefetcherState struct {
	Streams []StreamState `json:"streams"`
	Buffer  []LineState   `json:"buffer"`
	Next    int           `json:"next"`
	Stats   PrefetchStats `json:"stats"`
	Rng     uint64        `json:"rng"`
}

// StreamState snapshots one stride-table entry.
type StreamState struct {
	Tag  uint64 `json:"tag"`
	Last int64  `json:"last"`
	Strd int64  `json:"strd"`
	Conf int    `json:"conf"`
	Used bool   `json:"used,omitempty"`
}

// LineState snapshots one prefetch buffer slot.
type LineState struct {
	Addr  int64 `json:"addr"`
	Ready int64 `json:"ready"`
	Hit   bool  `json:"hit,omitempty"`
	Valid bool  `json:"valid,omitempty"`
}

// State implements the snapshot side of checkpointing.
func (p *Prefetcher) State() *PrefetcherState {
	st := &PrefetcherState{Next: p.next, Stats: p.Stats(), Rng: p.rnd.State()}
	for _, s := range p.tab {
		st.Streams = append(st.Streams, StreamState{Tag: s.tag, Last: s.last, Strd: s.strd, Conf: s.conf, Used: s.used})
	}
	for _, l := range p.buf {
		st.Buffer = append(st.Buffer, LineState{Addr: l.addr, Ready: l.ready, Hit: l.hit, Valid: l.valid})
	}
	return st
}

// Restore implements the restore side of checkpointing.
func (p *Prefetcher) Restore(st *PrefetcherState) error {
	if st == nil {
		return fmt.Errorf("dynsched: prefetcher restore: nil state")
	}
	if len(st.Streams) != len(p.tab) || len(st.Buffer) != len(p.buf) {
		return fmt.Errorf("dynsched: prefetcher restore: shape mismatch (%d/%d streams, %d/%d lines)",
			len(st.Streams), len(p.tab), len(st.Buffer), len(p.buf))
	}
	if st.Next < 0 || st.Next >= len(p.buf) {
		return fmt.Errorf("dynsched: prefetcher restore: next line %d outside %d", st.Next, len(p.buf))
	}
	for i, s := range st.Streams {
		p.tab[i] = stream{tag: s.Tag, last: s.Last, strd: s.Strd, conf: s.Conf, used: s.Used}
	}
	for i, l := range st.Buffer {
		p.buf[i] = pline{addr: l.Addr, ready: l.Ready, hit: l.Hit, valid: l.Valid}
	}
	p.next = st.Next
	p.stats = st.Stats
	p.stats.ByBank = append([]int64(nil), st.Stats.ByBank...)
	p.rnd.SetState(st.Rng)
	return nil
}

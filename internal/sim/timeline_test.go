package sim

import (
	"strings"
	"testing"

	"pcoup/internal/isa"
	"pcoup/internal/machine"
)

func TestTimeline(t *testing.T) {
	// A burst of IU work followed by a quiet tail: the first bucket must
	// show higher utilization than the last.
	var words []isa.Instruction
	for i := 0; i < 8; i++ {
		words = append(words, word(
			opAdd(uIU0, r(0, i), isa.ImmInt(int64(i)), isa.ImmInt(1)),
			opAdd(uIU1, r(1, i), isa.ImmInt(int64(i)), isa.ImmInt(2)),
		))
	}
	// Quiet dependent chain.
	words = append(words, word(opAdd(uIU0, r(0, 20), isa.ImmInt(0), isa.ImmInt(0))))
	for i := 0; i < 8; i++ {
		words = append(words, word(opAdd(uIU0, r(0, 20), isa.Reg(r(0, 20)), isa.ImmInt(1))))
	}
	words = append(words, word(opHalt()))
	main := &isa.ThreadCode{Name: "main", Instrs: words}

	cfg := miniMachine()
	tl := NewTimeline(cfg, 8)
	s, err := New(cfg, prog(main), WithObserver(tl))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	pts := tl.Points(res.Cycles)
	if len(pts) < 2 {
		t.Fatalf("timeline has %d buckets", len(pts))
	}
	total := int64(0)
	for _, p := range pts {
		for _, n := range p.Issued {
			total += n
		}
		if p.Threads < 1 {
			t.Errorf("bucket at %d saw no threads", p.StartCycle)
		}
	}
	if total != res.Ops {
		t.Errorf("timeline counted %d issues, run had %d", total, res.Ops)
	}
	firstIU := pts[0].Issued[machine.IU]
	lastIU := pts[len(pts)-1].Issued[machine.IU]
	if firstIU <= lastIU {
		t.Errorf("burst bucket (%d IU ops) should exceed tail bucket (%d)", firstIU, lastIU)
	}

	var buf strings.Builder
	tl.Write(&buf, res.Cycles)
	if !strings.Contains(buf.String(), "utilization timeline") {
		t.Error("render missing header")
	}
}

func TestTimelineBucketClamp(t *testing.T) {
	tl := NewTimeline(miniMachine(), 0)
	if tl.bucket != 1 {
		t.Errorf("zero bucket not clamped: %d", tl.bucket)
	}
}

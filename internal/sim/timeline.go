package sim

import (
	"fmt"
	"io"
	"strings"

	"pcoup/internal/isa"
	"pcoup/internal/machine"
)

// TimelinePoint is one bucket of the utilization timeline: operation
// issues per unit class over a window of cycles.
type TimelinePoint struct {
	// StartCycle is the first cycle of the bucket (1-based).
	StartCycle int64
	// Cycles is the bucket width (the final bucket may be short).
	Cycles int64
	Issued [machine.NumUnitKinds]int64
	// Threads is the number of distinct threads that issued in the
	// bucket.
	Threads int
}

// Timeline records utilization over execution time — applications
// "exhibit an uneven amount of instruction-level parallelism during
// their execution" (the paper's opening motivation), and the timeline
// makes that unevenness measurable. It is an Observer of issue events:
// install it with WithObserver.
type Timeline struct {
	nopEvents
	units  []machine.UnitRef
	bucket int64
	points []TimelinePoint
	seen   map[int]bool
}

// NewTimeline buckets issues into windows of the given width.
func NewTimeline(cfg *machine.Config, bucket int64) *Timeline {
	if bucket < 1 {
		bucket = 1
	}
	return &Timeline{units: cfg.Units(), bucket: bucket, seen: map[int]bool{}}
}

// Issue counts one issue in its cycle's bucket.
func (tl *Timeline) Issue(cycle int64, unit, thread, _ int, _ *isa.Op) {
	idx := int((cycle - 1) / tl.bucket)
	for len(tl.points) <= idx {
		tl.points = append(tl.points, TimelinePoint{
			StartCycle: int64(len(tl.points))*tl.bucket + 1,
			Cycles:     tl.bucket,
		})
		tl.seen = map[int]bool{}
	}
	p := &tl.points[idx]
	p.Issued[tl.units[unit].Kind]++
	if !tl.seen[thread] {
		tl.seen[thread] = true
		p.Threads++
	}
}

// Points returns the recorded buckets, trimming the final bucket's width
// to the actual run length.
func (tl *Timeline) Points(totalCycles int64) []TimelinePoint {
	pts := append([]TimelinePoint{}, tl.points...)
	if n := len(pts); n > 0 {
		last := &pts[n-1]
		if end := last.StartCycle + last.Cycles - 1; end > totalCycles {
			last.Cycles = totalCycles - last.StartCycle + 1
		}
	}
	return pts
}

// Write renders the timeline as rows of per-class utilization with a
// total-issue bar.
func (tl *Timeline) Write(w io.Writer, totalCycles int64) {
	pts := tl.Points(totalCycles)
	fmt.Fprintf(w, "utilization timeline (bucket = %d cycles; ops/cycle per class)\n", tl.bucket)
	fmt.Fprintf(w, "%10s %7s %7s %7s %7s %8s  total\n", "cycle", "IU", "FPU", "MEM", "BR", "threads")
	maxUnits := len(tl.units)
	for _, p := range pts {
		if p.Cycles <= 0 {
			continue
		}
		c := float64(p.Cycles)
		total := int64(0)
		for _, n := range p.Issued {
			total += n
		}
		frac := float64(total) / c / float64(maxUnits)
		width := int(frac * 40)
		fmt.Fprintf(w, "%10d %7.2f %7.2f %7.2f %7.2f %8d  |%s\n",
			p.StartCycle,
			float64(p.Issued[machine.IU])/c, float64(p.Issued[machine.FPU])/c,
			float64(p.Issued[machine.MEM])/c, float64(p.Issued[machine.BR])/c,
			p.Threads, strings.Repeat("#", width))
	}
}

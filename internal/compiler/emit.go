package compiler

import (
	"fmt"
	"slices"
	"time"

	"pcoup/internal/isa"
)

// emit schedules every lowered function and assembles the final program:
// wide instruction words per segment, resolved branch and fork targets,
// physical register assignment per cluster, and the initial data image.
// A non-zero deadline stops it with a DeadlineError once passed.
func (e *env) emit(deadline time.Time) (*isa.Program, *Diagnostics, error) {
	prog := &isa.Program{
		Name: e.progName, MemWords: e.memWords(),
		Segments: make([]*isa.ThreadCode, 0, len(e.fns)),
	}
	if len(e.globalOrder) > 0 {
		prog.Data = make([]isa.DataSegment, 0, len(e.globalOrder))
	}
	diags := &Diagnostics{Segments: make([]SegDiag, 0, len(e.fns))}

	var sc *scheduler
	ra := &regAlloc{}
	for i, fn := range e.fns {
		if sc == nil {
			sc = newScheduler(e, fn, &e.segs[i])
			sc.deadline = deadline
		} else {
			sc.start(fn, &e.segs[i])
		}
		seg, d, err := e.emitSegment(sc, ra)
		if err != nil {
			return nil, nil, err
		}
		prog.Segments = append(prog.Segments, seg)
		diags.Segments = append(diags.Segments, d)
	}

	for _, name := range e.globalOrder {
		g := e.globals[name]
		vals := make([]isa.Value, g.size)
		if g.typ == TFloat {
			for i := range vals {
				vals[i] = isa.Float(0)
			}
		}
		copy(vals, g.init)
		prog.Data = append(prog.Data, isa.DataSegment{
			Name: g.name, Addr: g.addr, Values: vals, Full: !g.empty,
		})
	}
	return prog, diags, nil
}

// regAlloc assigns physical register indices per (vreg, cluster) pair,
// in order of first reference.
type regAlloc struct {
	nclusters int
	index     []int32 // index[v*nclusters+c] is the register index+1, 0 for none
	next      []int
}

// start resets the allocator for a function on a machine with
// nclusters clusters.
func (ra *regAlloc) start(fn *Fn, nclusters int) {
	ra.nclusters = nclusters
	n := int(fn.nextVReg) * nclusters
	if cap(ra.index) < n {
		ra.index = make([]int32, n)
	} else {
		ra.index = ra.index[:n]
		clear(ra.index)
	}
	ra.next = make([]int, nclusters)
}

func (ra *regAlloc) reg(v VReg, cluster int) isa.RegRef {
	p := &ra.index[int(v)*ra.nclusters+cluster]
	if *p == 0 {
		*p = int32(ra.next[cluster] + 1)
		ra.next[cluster]++
	}
	return isa.RegRef{Cluster: cluster, Index: int(*p - 1)}
}

// opSlabs back the operations of one segment and their operand and
// destination lists.
type opSlabs struct {
	ops   []isa.Op
	srcs  []isa.Operand
	dests []isa.RegRef
}

func (e *env) emitSegment(sc *scheduler, ra *regAlloc) (*isa.ThreadCode, SegDiag, error) {
	fn := sc.fn
	numUnits := e.cfg.NumUnits()

	// Pass 1: schedule all blocks and record start word indexes.
	blockStart := make([]int, len(fn.Blocks)+1)
	words := 0
	for i, b := range fn.Blocks {
		if sc.expired() {
			return nil, SegDiag{}, &DeadlineError{Deadline: sc.deadline}
		}
		blockStart[i] = words
		n, err := sc.scheduleBlock(b)
		if err != nil {
			return nil, SegDiag{}, err
		}
		words += n
	}
	blockStart[len(fn.Blocks)] = words

	loop := fn.loopBlocks()
	diag := SegDiag{Name: fn.Name, Moves: sc.moves, BlockWords: make([]int, 0, len(fn.Blocks))}
	ra.start(fn, len(e.cfg.Clusters))

	var slabs opSlabs
	nsrcs, ndests := 0, 0
	for _, po := range sc.segOps {
		nsrcs += len(po.ir.Srcs)
		if po.ir.Dst != 0 {
			ndests += len(po.destClusters)
		}
	}
	slabs.ops = make([]isa.Op, len(sc.segOps))
	slabs.srcs = make([]isa.Operand, nsrcs)
	slabs.dests = make([]isa.RegRef, ndests)
	wordOps := make([]*isa.Op, words*numUnits)

	seg := &isa.ThreadCode{Name: fn.Name}
	if words > 0 {
		seg.Instrs = make([]isa.Instruction, 0, words)
	}
	for bi := range fn.Blocks {
		n := blockStart[bi+1] - blockStart[bi]
		diag.BlockWords = append(diag.BlockWords, n)
		if loop[bi] {
			diag.LoopWords += n
		}
		for w := blockStart[bi]; w < blockStart[bi+1]; w++ {
			instr := isa.Instruction{Ops: wordOps[w*numUnits : (w+1)*numUnits : (w+1)*numUnits]}
			first := 0
			if w > 0 {
				first = sc.wordEnd[w-1]
			}
			for _, po := range sc.segOps[first:sc.wordEnd[w]] {
				op, err := e.buildOp(&slabs, po, sc, ra, blockStart)
				if err != nil {
					return nil, SegDiag{}, err
				}
				if instr.Ops[po.unit] != nil {
					return nil, SegDiag{}, fmt.Errorf("compiler: internal: %s: double-booked unit %d", fn.Name, po.unit)
				}
				instr.Ops[po.unit] = op
				diag.Ops++
			}
			seg.Instrs = append(seg.Instrs, instr)
		}
	}
	seg.ScheduleLen = len(seg.Instrs)
	seg.RegCount = append([]int{}, ra.next...)
	diag.Words = len(seg.Instrs)
	diag.RegsPerCluster = append([]int{}, ra.next...)
	return seg, diag, nil
}

// buildOp converts one placed IR instruction into an ISA operation,
// taken with its operand lists from the segment's slabs.
func (e *env) buildOp(slabs *opSlabs, po *placedOp, sc *scheduler, ra *regAlloc, blockStart []int) (*isa.Op, error) {
	in := po.ir
	cu := sc.cluster(int(po.unit))
	op := &slabs.ops[0]
	slabs.ops = slabs.ops[1:]
	*op = isa.Op{Code: in.Op, Sync: in.Sync, Unit: int(po.unit), Offset: in.Offset}

	if n := len(in.Srcs); n > 0 {
		op.Srcs = slabs.srcs[:n:n]
		slabs.srcs = slabs.srcs[n:]
		for i, s := range in.Srcs {
			if s.IsConst {
				op.Srcs[i] = isa.Imm(s.Const())
			} else {
				op.Srcs[i] = isa.Reg(ra.reg(s.VReg, cu))
			}
		}
	}
	if in.Dst != 0 {
		if len(po.destClusters) == 0 {
			return nil, fmt.Errorf("compiler: internal: op %s has no destination cluster", in)
		}
		if len(po.destClusters) > e.cfg.MaxDests {
			return nil, fmt.Errorf("compiler: internal: op %s exceeds %d destinations", in, e.cfg.MaxDests)
		}
		n := len(po.destClusters)
		op.Dests = slabs.dests[:0:n]
		slabs.dests = slabs.dests[n:]
		for i, c := range po.destClusters {
			if slices.Contains(po.destClusters[:i], c) {
				continue
			}
			op.Dests = append(op.Dests, ra.reg(in.Dst, int(c)))
		}
	}
	switch in.Op {
	case isa.OpJmp, isa.OpBt, isa.OpBf:
		if in.Target == nil {
			return nil, fmt.Errorf("compiler: internal: branch without target")
		}
		op.Target = blockStart[in.Target.ID]
		op.TargetLabel = ""
	case isa.OpFork:
		if in.ForkSeg <= 0 || int(in.ForkSeg) >= len(e.segs) {
			return nil, fmt.Errorf("compiler: internal: unknown fork segment %d", in.ForkSeg)
		}
		op.Target = int(in.ForkSeg)
	}
	return op, nil
}

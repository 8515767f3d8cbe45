package compiler

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pcoup/internal/isa"
	"pcoup/internal/machine"
	"pcoup/internal/sexpr"
)

// TestUnitsByKindOrder pins each op class's unit preference order: the
// arithmetic clusters rotated left by the segment's rotation, then the
// rotated branch clusters, with single-cluster mode restricted to the
// first cluster of each (all units of a class when that cluster has
// none), on the baseline and on a mixed machine.
func TestUnitsByKindOrder(t *testing.T) {
	rotated := func(xs []int, k int) []int {
		if len(xs) == 0 {
			return nil
		}
		k %= len(xs)
		return append(append([]int{}, xs[k:]...), xs[:k]...)
	}
	for _, cfg := range []*machine.Config{machine.Baseline(), machine.Mix(2, 1)} {
		for _, mode := range []Mode{Unrestricted, SingleCluster} {
			tab := newUnitTables(cfg, mode)
			for rot := 0; rot < 9; rot++ {
				arith, branch := rotated(cfg.ArithClusters(), rot), rotated(cfg.BranchClusters(), rot)
				order := append(append([]int{}, arith...), branch...)
				got := tab.unitsByKind(rot)
				for k := 0; k < machine.NumUnitKinds; k++ {
					var want []int
					for _, c := range order {
						if mode == SingleCluster && machine.UnitKind(k) == machine.BR && c != branch[0] {
							continue
						}
						if mode == SingleCluster && machine.UnitKind(k) != machine.BR && c != arith[0] {
							continue
						}
						for _, u := range cfg.Units() {
							if u.Cluster == c && int(u.Kind) == k {
								want = append(want, u.Global)
							}
						}
					}
					if len(want) == 0 {
						for _, c := range order {
							for _, u := range cfg.Units() {
								if u.Cluster == c && int(u.Kind) == k {
									want = append(want, u.Global)
								}
							}
						}
					}
					if fmt.Sprint(got[k]) != fmt.Sprint(want) {
						t.Errorf("%s %v rotation %d kind %v: units %v, want %v", cfg.Name, mode, rot, machine.UnitKind(k), got[k], want)
					}
				}
			}
		}
	}
}

// testEnv builds a minimal environment for white-box scheduler tests.
func testEnv(t *testing.T) *env {
	t.Helper()
	forms, err := sexpr.Parse("(program t (def (main) (set x 1)))")
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(forms, machine.Baseline(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestClaimProbe(t *testing.T) {
	e := testEnv(t)
	fn := newFn("t")
	sc := newScheduler(e, fn, &segWork{name: "t"})
	if c := sc.probe(0, 0); c != 0 {
		t.Errorf("probe empty = %d", c)
	}
	if c := sc.claim(0, 0); c != 0 {
		t.Errorf("first claim = %d", c)
	}
	if c := sc.claim(0, 0); c != 1 {
		t.Errorf("second claim = %d", c)
	}
	if c := sc.probe(0, 0); c != 2 {
		t.Errorf("probe after claims = %d", c)
	}
	if c := sc.claim(0, 5); c != 5 {
		t.Errorf("claim at 5 = %d", c)
	}
	if c := sc.claim(0, 2); c != 2 {
		t.Errorf("claim fills gap = %d", c)
	}
}

// buildTestBlock assembles a block from instructions for dependence tests.
func buildTestBlock(ins ...*Instr) *Block { return &Block{Instrs: ins} }

// ordered reports whether the dependence graph orders node from before
// node to: an edge, or a path of edges (every edge has latency >= 1, so
// a path orders the pair as firmly as an edge would).
func ordered(nodes []*node, from, to int) bool {
	seen := map[*node]bool{}
	stack := []*node{nodes[from]}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range n.succs {
			if s.n == nodes[to] {
				return true
			}
			if !seen[s.n] {
				seen[s.n] = true
				stack = append(stack, s.n)
			}
		}
	}
	return false
}

func TestBuildDepsRAWandWAR(t *testing.T) {
	e := testEnv(t)
	fn := newFn("t")
	v1 := fn.newVReg(TInt)
	v2 := fn.newVReg(TInt)
	sc := newScheduler(e, fn, &segWork{name: "t"})
	def := &Instr{Op: isa.OpAdd, Dst: v1, Srcs: []Src{cint(1), cint(2)}, Type: TInt}
	use := &Instr{Op: isa.OpAdd, Dst: v2, Srcs: []Src{vsrc(v1), cint(1)}, Type: TInt}
	redef := &Instr{Op: isa.OpMov, Dst: v1, Srcs: []Src{cint(9)}, Type: TInt}
	nodes := sc.buildDeps(buildTestBlock(def, use, redef))
	hasEdge := func(from, to int) bool {
		for _, s := range nodes[from].succs {
			if s.n == nodes[to] {
				return true
			}
		}
		return false
	}
	if !hasEdge(0, 1) {
		t.Error("missing RAW edge def->use")
	}
	if !hasEdge(1, 2) {
		t.Error("missing WAR edge use->redef")
	}
	if !hasEdge(0, 2) {
		t.Error("missing WAW edge def->redef")
	}
	if hasEdge(1, 0) || hasEdge(2, 1) {
		t.Error("backward edges present")
	}
}

func TestBuildDepsMemoryOrdering(t *testing.T) {
	e := testEnv(t)
	fn := newFn("t")
	v := fn.newVReg(TInt)
	sc := newScheduler(e, fn, &segWork{name: "t"})

	ldA := &Instr{Op: isa.OpLoad, Dst: v, Alias: 1, Offset: 8, AddrConst: true, Type: TInt}
	ldA2 := &Instr{Op: isa.OpLoad, Dst: fn.newVReg(TInt), Alias: 1, Offset: 9, AddrConst: true, Type: TInt}
	stB := &Instr{Op: isa.OpStore, Srcs: []Src{cint(1)}, Alias: 2, Offset: 20, AddrConst: true}
	stA := &Instr{Op: isa.OpStore, Srcs: []Src{cint(2)}, Alias: 1, Offset: 8, AddrConst: true}
	stADiff := &Instr{Op: isa.OpStore, Srcs: []Src{cint(3)}, Alias: 1, Offset: 9, AddrConst: true}
	sync := &Instr{Op: isa.OpLoad, Dst: fn.newVReg(TInt), Alias: 3, Offset: 30, AddrConst: true, Sync: isa.SyncConsume, Type: TInt}
	after := &Instr{Op: isa.OpLoad, Dst: fn.newVReg(TInt), Alias: 2, Offset: 21, AddrConst: true, Type: TInt}

	nodes := sc.buildDeps(buildTestBlock(ldA, ldA2, stB, stA, stADiff, sync, after))
	if ordered(nodes, 0, 1) {
		t.Error("two loads must not be ordered")
	}
	if ordered(nodes, 0, 2) {
		t.Error("different aliases must not be ordered (load a vs store b)")
	}
	if !ordered(nodes, 0, 3) {
		t.Error("store to a@8 must follow load of a@8")
	}
	if ordered(nodes, 0, 4) {
		t.Error("store a@9 must not be ordered against load a@8 (distinct constant addresses)")
	}
	// The synchronizing load is a barrier in both directions.
	for i := 0; i < 5; i++ {
		if !ordered(nodes, i, 5) {
			t.Errorf("sync load not ordered after op %d", i)
		}
	}
	if !ordered(nodes, 5, 6) {
		t.Error("load after sync must be ordered behind it")
	}
}

// TestBuildDepsConstOffsetExact: within an alias, constant addresses
// disambiguate exactly. A load at @5 after stores at @5 and @6 follows
// the @5 store (by an edge of its own: the stores are not ordered
// against each other) and not the @6 one.
func TestBuildDepsConstOffsetExact(t *testing.T) {
	e := testEnv(t)
	fn := newFn("t")
	sc := newScheduler(e, fn, &segWork{name: "t"})
	st5 := &Instr{Op: isa.OpStore, Srcs: []Src{cint(1)}, Alias: 1, Offset: 5, AddrConst: true}
	st6 := &Instr{Op: isa.OpStore, Srcs: []Src{cint(2)}, Alias: 1, Offset: 6, AddrConst: true}
	ld5 := &Instr{Op: isa.OpLoad, Dst: fn.newVReg(TInt), Alias: 1, Offset: 5, AddrConst: true, Type: TInt}
	nodes := sc.buildDeps(buildTestBlock(st5, st6, ld5))
	edge := false
	for _, s := range nodes[0].succs {
		edge = edge || s.n == nodes[2]
	}
	if !edge {
		t.Error("load a@5 lacks its edge from store a@5")
	}
	if ordered(nodes, 0, 1) || ordered(nodes, 1, 2) {
		t.Error("accesses to a@5 and a@6 must not be ordered")
	}
}

// TestBuildDepsMemoryClosure checks the pruned memory and fork edges
// against their definition on random blocks: node j must be ordered
// after node i exactly when the full relation (an edge from every
// earlier conflicting memory op, from every earlier fork, and from
// every earlier memory op to a fork) orders it, directly or through
// other ops. Equal orderings give equal priorities and bounds, so the
// schedule is unchanged.
func TestBuildDepsMemoryClosure(t *testing.T) {
	e := testEnv(t)
	r := rand.New(rand.NewSource(1))
	aliases := []int32{1, 2, 0}
	for trial := 0; trial < 400; trial++ {
		fn := newFn("t")
		addr := fn.newVReg(TInt) // never defined in the block: no register edges
		n := 2 + r.Intn(24)
		var ins []*Instr
		for i := 0; i < n; i++ {
			if r.Intn(10) == 0 {
				ins = append(ins, &Instr{Op: isa.OpFork, ForkSeg: 1})
				continue
			}
			in := &Instr{Op: isa.OpLoad, Alias: aliases[r.Intn(len(aliases))], Type: TInt}
			if r.Intn(2) == 0 {
				in.Op = isa.OpStore
				in.Srcs = []Src{cint(1)}
			} else {
				in.Dst = fn.newVReg(TInt)
			}
			if r.Intn(3) > 0 {
				in.Offset, in.AddrConst = int64(r.Intn(3)), true
			} else {
				in.Srcs = append(in.Srcs, vsrc(addr))
			}
			if r.Intn(8) == 0 {
				in.Sync = isa.SyncConsume
				if in.Op == isa.OpStore {
					in.Sync = isa.SyncProduce
				}
			}
			ins = append(ins, in)
		}
		sc := newScheduler(e, fn, &segWork{name: "t"})
		nodes := sc.buildDeps(buildTestBlock(ins...))

		// Transitive closure of the full relation.
		want := make([][]bool, n)
		for j := range want {
			want[j] = make([]bool, n)
			for i := 0; i < j; i++ {
				a, b := ins[i], ins[j]
				aMem := a.Op != isa.OpFork
				bMem := b.Op != isa.OpFork
				direct := !aMem || !bMem || memConflict(a, b)
				if direct {
					want[j][i] = true
				}
			}
			for i := 0; i < j; i++ {
				if want[j][i] {
					for k := 0; k < i; k++ {
						if want[i][k] {
							want[j][k] = true
						}
					}
				}
			}
		}
		for j := 0; j < n; j++ {
			for i := 0; i < j; i++ {
				if got := ordered(nodes, i, j); got != want[j][i] {
					t.Fatalf("trial %d: op %d (%s) before op %d (%s): ordered=%v, want %v\nblock:\n%s",
						trial, i, ins[i], j, ins[j], got, want[j][i], fmtBlock(ins))
				}
			}
		}
	}
}

func fmtBlock(ins []*Instr) string {
	var b strings.Builder
	for i, in := range ins {
		fmt.Fprintf(&b, "  %d: %s\n", i, in)
	}
	return b.String()
}

func TestBuildDepsForkOrdering(t *testing.T) {
	e := testEnv(t)
	fn := newFn("t")
	sc := newScheduler(e, fn, &segWork{name: "t"})
	st := &Instr{Op: isa.OpStore, Srcs: []Src{cint(1)}, Alias: 1, Offset: 8, AddrConst: true}
	fork1 := &Instr{Op: isa.OpFork, ForkSeg: 1}
	fork2 := &Instr{Op: isa.OpFork, ForkSeg: 2}
	ld := &Instr{Op: isa.OpLoad, Dst: fn.newVReg(TInt), Alias: 1, Offset: 8, AddrConst: true, Type: TInt}
	nodes := sc.buildDeps(buildTestBlock(st, fork1, fork2, ld))
	if !ordered(nodes, 0, 1) {
		t.Error("fork must follow earlier stores")
	}
	if !ordered(nodes, 1, 2) {
		t.Error("forks must stay in program (priority) order")
	}
	if !ordered(nodes, 1, 3) || !ordered(nodes, 2, 3) {
		t.Error("memory ops must follow earlier forks")
	}
}

func TestLoopBlocksDetection(t *testing.T) {
	fn := newFn("t")
	// b0 -> b1 (loop header) -> b2 (body, jmp b1) ; b3 exit
	b0 := fn.newBlock()
	b1 := fn.newBlock()
	b2 := fn.newBlock()
	b3 := fn.newBlock()
	_ = b0
	cond := fn.newVReg(TInt)
	b1.Instrs = append(b1.Instrs, &Instr{Op: isa.OpBf, Srcs: []Src{vsrc(cond)}, Target: b3})
	b2.Instrs = append(b2.Instrs, &Instr{Op: isa.OpJmp, Target: b1})
	b3.Instrs = append(b3.Instrs, &Instr{Op: isa.OpHalt})
	loops := fn.loopBlocks()
	if !loops[1] || !loops[2] {
		t.Errorf("loop blocks = %v, want b1 and b2", loops)
	}
	if loops[0] || loops[3] {
		t.Errorf("non-loop blocks flagged: %v", loops)
	}
}

func TestLivenessCrossBlock(t *testing.T) {
	fn := newFn("t")
	v := fn.newVReg(TInt)
	local := fn.newVReg(TInt)
	b0 := fn.newBlock()
	b1 := fn.newBlock()
	b0.Instrs = append(b0.Instrs,
		&Instr{Op: isa.OpMov, Dst: v, Srcs: []Src{cint(1)}, Type: TInt},
		&Instr{Op: isa.OpMov, Dst: local, Srcs: []Src{cint(2)}, Type: TInt},
		&Instr{Op: isa.OpAdd, Dst: local, Srcs: []Src{vsrc(local), cint(1)}, Type: TInt},
	)
	b1.Instrs = append(b1.Instrs,
		&Instr{Op: isa.OpStore, Srcs: []Src{vsrc(v)}, Alias: 1, Offset: 8, AddrConst: true},
		&Instr{Op: isa.OpHalt},
	)
	cross := fn.crossBlockVRegs()
	if !cross[v] {
		t.Error("v used in a later block must be cross-block")
	}
	if cross[local] {
		t.Error("block-local value flagged as cross-block")
	}
}

// TestScheduleRespectsMaxDests compiles code forcing wide fan-out and
// checks no emitted op exceeds the destination budget (also validated by
// Program.Validate, but asserted here against a tighter machine).
func TestScheduleRespectsMaxDests(t *testing.T) {
	cfg := machine.Baseline()
	cfg.MaxDests = 1
	src := `
(program p
  (global a (array float 4) (init 1.0 2.0 3.0 4.0))
  (global out (array float 8))
  (def (main)
    (set x (aref a 0))
    (unroll (i 0 8)
      (aset out i (+ x (aref a (% i 4)))))))`
	prog, _, err := Compile(src, cfg, Options{Mode: Unrestricted})
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range prog.Segments {
		for _, in := range seg.Instrs {
			for _, op := range in.Ops {
				if op != nil && len(op.Dests) > 1 {
					t.Fatalf("op %s has %d dests with MaxDests=1", op, len(op.Dests))
				}
			}
		}
	}
}

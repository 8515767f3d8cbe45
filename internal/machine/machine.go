// Package machine describes the configuration of a processor-coupled node:
// the grouping of function units into clusters, unit pipeline latencies,
// the interconnection network between clusters, and the memory system
// model. Both the compiler and the simulator are parameterized by a
// machine.Config, mirroring the configuration files used by the paper's
// toolchain.
package machine

import (
	"errors"
	"fmt"
	"strings"

	"pcoup/internal/faults"
)

// UnitKind identifies the class of a function unit.
type UnitKind int

const (
	// IU is an integer arithmetic/logic unit.
	IU UnitKind = iota
	// FPU is a floating-point unit.
	FPU
	// MEM is a memory (load/store and address calculation) unit.
	MEM
	// BR is a branch calculation unit.
	BR
	numUnitKinds
)

// NumUnitKinds is the number of distinct function unit classes.
const NumUnitKinds = int(numUnitKinds)

var unitKindNames = [...]string{"IU", "FPU", "MEM", "BR"}

func (k UnitKind) String() string {
	if k < 0 || int(k) >= len(unitKindNames) {
		return fmt.Sprintf("UnitKind(%d)", int(k))
	}
	return unitKindNames[k]
}

// ParseUnitKind converts a name such as "IU" or "fpu" into a UnitKind.
func ParseUnitKind(s string) (UnitKind, error) {
	for i, n := range unitKindNames {
		if strings.EqualFold(s, n) {
			return UnitKind(i), nil
		}
	}
	return 0, fmt.Errorf("machine: unknown unit kind %q", s)
}

// UnitSpec describes one function unit within a cluster.
type UnitSpec struct {
	Kind UnitKind
	// Latency is the execution pipeline depth in cycles; results written
	// back Latency cycles after issue. Must be >= 1.
	Latency int
}

// ClusterSpec describes one cluster: a set of function units sharing a
// register file.
type ClusterSpec struct {
	Units []UnitSpec
	// Registers is the register file capacity per thread. Zero means
	// unbounded (the paper's compiler assumes infinite registers and
	// reports the peak actually used).
	Registers int
}

// Has reports whether the cluster contains a unit of kind k.
func (c ClusterSpec) Has(k UnitKind) bool {
	for _, u := range c.Units {
		if u.Kind == k {
			return true
		}
	}
	return false
}

// InterconnectKind selects the model of communication between function
// units and register files (Section 4, "Restricting Communication").
type InterconnectKind int

const (
	// Full: unlimited buses and register file write ports.
	Full InterconnectKind = iota
	// TriPort: three write ports per register file; one reserved for
	// units local to the cluster, two global ports each with its own bus.
	TriPort
	// DualPort: two write ports; one local, one global with its own bus.
	DualPort
	// SinglePort: one write port per register file with its own bus,
	// shared by local and remote writers.
	SinglePort
	// SharedBus: two ports per register file; one local, one attached to
	// a single bus shared by the entire machine.
	SharedBus
)

var interconnectNames = [...]string{"Full", "Tri-Port", "Dual-Port", "Single-Port", "Shared-Bus"}

func (k InterconnectKind) String() string {
	if k < 0 || int(k) >= len(interconnectNames) {
		return fmt.Sprintf("InterconnectKind(%d)", int(k))
	}
	return interconnectNames[k]
}

// Interconnects lists every interconnect model, in the order used by
// Figure 6 of the paper.
func Interconnects() []InterconnectKind {
	return []InterconnectKind{Full, TriPort, DualPort, SinglePort, SharedBus}
}

// MemoryModel describes the statistical memory system (Section 4,
// "Variable Memory Latency"). A reference hits with probability
// 1-MissRate and completes after HitLatency cycles; otherwise it
// completes after HitLatency plus a penalty drawn uniformly from
// [MissPenaltyMin, MissPenaltyMax].
type MemoryModel struct {
	Name           string
	HitLatency     int
	MissRate       float64
	MissPenaltyMin int
	MissPenaltyMax int
	// Banks is the number of interleaved banks. The paper assumes no
	// bank conflicts; set ModelBankConflicts to simulate them anyway
	// (ablation).
	Banks              int
	ModelBankConflicts bool
}

// OpCacheModel describes per-unit operation caches. Summed over all
// function units the operation caches form the node's instruction cache
// (Section 2 of the paper). The paper's simulations assume no operation
// cache misses; enabling this model is an extension that measures the
// cost of that assumption. The cache is direct-mapped over instruction
// word addresses; a miss stalls the operation's issue for MissPenalty
// cycles while the word's operations are fetched.
type OpCacheModel struct {
	// Entries is the per-unit cache size in operations; 0 disables the
	// model (the paper's assumption).
	Entries int
	// MissPenalty is the fetch delay in cycles on a miss.
	MissPenalty int
}

// Memory model presets from the paper.
var (
	// MemMin: single-cycle latency for all references.
	MemMin = MemoryModel{Name: "Min", HitLatency: 1, Banks: 4}
	// Mem1: single-cycle hit, 5% miss rate, 20-100 cycle penalty.
	Mem1 = MemoryModel{Name: "Mem1", HitLatency: 1, MissRate: 0.05, MissPenaltyMin: 20, MissPenaltyMax: 100, Banks: 4}
	// Mem2: like Mem1 with a 10% miss rate.
	Mem2 = MemoryModel{Name: "Mem2", HitLatency: 1, MissRate: 0.10, MissPenaltyMin: 20, MissPenaltyMax: 100, Banks: 4}
	// MemSlow: Mem2-style statistical memory with an order-of-magnitude
	// longer miss tail (200-1000 cycles), modeling DRAM or remote-node
	// references for the scaling studies. Not part of the paper's Figure 7
	// sweep (MemoryModels); cells on this model are latency-dominated and
	// exercise the simulator's event core.
	MemSlow = MemoryModel{Name: "Slow", HitLatency: 1, MissRate: 0.10, MissPenaltyMin: 200, MissPenaltyMax: 1000, Banks: 4}
)

// MemoryModels lists the three presets in the order used by Figure 7.
func MemoryModels() []MemoryModel { return []MemoryModel{MemMin, Mem1, Mem2} }

// ArbitrationKind selects how function units choose among ready
// operations from competing threads.
type ArbitrationKind int

const (
	// PriorityArbitration always favors the lowest-numbered thread
	// (threads are assigned priorities at spawn time). This is the policy
	// assumed by Table 3 of the paper.
	PriorityArbitration ArbitrationKind = iota
	// RoundRobinArbitration rotates the favored thread each cycle
	// (ablation).
	RoundRobinArbitration
)

func (k ArbitrationKind) String() string {
	switch k {
	case PriorityArbitration:
		return "priority"
	case RoundRobinArbitration:
		return "round-robin"
	}
	return fmt.Sprintf("ArbitrationKind(%d)", int(k))
}

// Config is a complete machine description.
type Config struct {
	Name     string
	Clusters []ClusterSpec

	Interconnect InterconnectKind
	Memory       MemoryModel

	// MaxDests is the maximum number of simultaneous register
	// destinations an operation may name (the baseline machine allows 2).
	MaxDests int

	// Seed seeds the statistical memory model's generator.
	Seed uint64

	Arbitration ArbitrationKind

	// LockStepIssue disables instruction-word "slip": all operations of a
	// thread's instruction word must issue in the same cycle (classic
	// VLIW issue; ablation — the paper's mechanism allows slip).
	LockStepIssue bool

	// OpCache, when enabled, models per-unit operation cache misses
	// (extension; the paper assumes none).
	OpCache OpCacheModel

	// MaxThreads bounds the active thread set. Zero means 64.
	MaxThreads int

	// Faults configures deterministic fault injection (lost/delayed
	// split-transaction wakeups, register-file port outages, function
	// unit degradation windows). The zero value disables it.
	Faults faults.Model

	// Dynamic configures the optional dynamic-scheduling subsystem
	// (out-of-order issue window, branch predictor, stride prefetcher).
	// The zero value disables it (paper-exact in-order issue).
	Dynamic DynamicModel
}

// UnitRef identifies one function unit within a Config.
type UnitRef struct {
	Global  int // index over all units, cluster-major
	Cluster int
	Local   int // index within the cluster
	Kind    UnitKind
	Latency int
}

// Units enumerates all function units cluster-major. The global index of
// a unit is its slot index in compiled instruction words.
func (c *Config) Units() []UnitRef {
	refs := make([]UnitRef, 0, c.NumUnits())
	g := 0
	for ci, cl := range c.Clusters {
		for li, u := range cl.Units {
			refs = append(refs, UnitRef{Global: g, Cluster: ci, Local: li, Kind: u.Kind, Latency: u.Latency})
			g++
		}
	}
	return refs
}

// NumUnits returns the total number of function units.
func (c *Config) NumUnits() int {
	n := 0
	for _, cl := range c.Clusters {
		n += len(cl.Units)
	}
	return n
}

// CountUnits returns the number of units of kind k.
func (c *Config) CountUnits(k UnitKind) int {
	n := 0
	for _, cl := range c.Clusters {
		for _, u := range cl.Units {
			if u.Kind == k {
				n++
			}
		}
	}
	return n
}

// Validation bounds. Configs now also arrive over the network (the
// pcserved job API), so structural limits are enforced here rather than
// trusted: instruction words carry one operation slot per function unit,
// and pipeline/penalty latencies bound per-op simulation work.
const (
	// MaxTotalUnits bounds the machine's function-unit (instruction word
	// slot) count.
	MaxTotalUnits = 64
	// MaxClusters bounds the cluster count.
	MaxClusters = 32
	// MaxLatency bounds unit pipeline depth and memory latencies/penalties.
	MaxLatency = 1 << 20
)

// Validate checks structural invariants of the configuration. Errors name
// the offending field using the JSON configuration spelling (for example
// "clusters[2].units[0].latency") so that callers feeding configs from
// files or the network can report precise diagnostics.
func (c *Config) Validate() error {
	if len(c.Clusters) == 0 {
		return errors.New("machine: clusters: config has no clusters")
	}
	if len(c.Clusters) > MaxClusters {
		return fmt.Errorf("machine: clusters: %d clusters (max %d)", len(c.Clusters), MaxClusters)
	}
	for ci, cl := range c.Clusters {
		if len(cl.Units) == 0 {
			return fmt.Errorf("machine: clusters[%d].units: cluster has no units", ci)
		}
		branches := 0
		for li, u := range cl.Units {
			if u.Kind < 0 || int(u.Kind) >= NumUnitKinds {
				return fmt.Errorf("machine: clusters[%d].units[%d].kind: invalid unit kind %d", ci, li, int(u.Kind))
			}
			if u.Latency < 1 {
				return fmt.Errorf("machine: clusters[%d].units[%d].latency: %d (must be >= 1)", ci, li, u.Latency)
			}
			if u.Latency > MaxLatency {
				return fmt.Errorf("machine: clusters[%d].units[%d].latency: %d (max %d)", ci, li, u.Latency, MaxLatency)
			}
			if u.Kind == BR {
				branches++
				if branches > 1 {
					return fmt.Errorf("machine: clusters[%d].units[%d]: duplicate BR slot (a cluster sequences at most one branch unit)", ci, li)
				}
			}
		}
		if cl.Registers < 0 {
			return fmt.Errorf("machine: clusters[%d].registers: %d (must be >= 0)", ci, cl.Registers)
		}
		// A cluster with a memory unit but no arithmetic unit could load
		// values it can never forward (register reads are local and only
		// IU/FPU operations can copy a register to another cluster).
		if cl.Has(MEM) && !cl.Has(IU) && !cl.Has(FPU) {
			return fmt.Errorf("machine: clusters[%d].units: a memory unit needs an IU or FPU in the same cluster to forward loaded values", ci)
		}
	}
	if n := c.NumUnits(); n > MaxTotalUnits {
		return fmt.Errorf("machine: clusters: %d function units in total (max %d)", n, MaxTotalUnits)
	}
	if c.CountUnits(BR) == 0 {
		return errors.New("machine: clusters: config has no branch unit")
	}
	if c.CountUnits(MEM) == 0 {
		return errors.New("machine: clusters: config has no memory unit")
	}
	if c.MaxDests < 1 {
		return fmt.Errorf("machine: max_dests: %d (must be >= 1)", c.MaxDests)
	}
	if c.Memory.HitLatency < 1 {
		return fmt.Errorf("machine: memory.hit_latency: %d (must be >= 1)", c.Memory.HitLatency)
	}
	if c.Memory.HitLatency > MaxLatency {
		return fmt.Errorf("machine: memory.hit_latency: %d (max %d)", c.Memory.HitLatency, MaxLatency)
	}
	if c.Memory.MissRate < 0 || c.Memory.MissRate > 1 {
		return fmt.Errorf("machine: memory.miss_rate: %g (must be in [0,1])", c.Memory.MissRate)
	}
	if c.Memory.MissRate > 0 {
		if c.Memory.MissPenaltyMin < 0 {
			return fmt.Errorf("machine: memory.miss_penalty_min: %d (must be >= 0)", c.Memory.MissPenaltyMin)
		}
		if c.Memory.MissPenaltyMax < c.Memory.MissPenaltyMin {
			return fmt.Errorf("machine: memory.miss_penalty_max: %d below miss_penalty_min %d", c.Memory.MissPenaltyMax, c.Memory.MissPenaltyMin)
		}
		if c.Memory.MissPenaltyMax > MaxLatency {
			return fmt.Errorf("machine: memory.miss_penalty_max: %d (max %d)", c.Memory.MissPenaltyMax, MaxLatency)
		}
	}
	if c.Memory.Banks < 1 {
		return fmt.Errorf("machine: memory.banks: %d (must be >= 1)", c.Memory.Banks)
	}
	if c.MaxThreads < 0 {
		return fmt.Errorf("machine: max_threads: %d (must be >= 0)", c.MaxThreads)
	}
	if c.OpCache.Entries < 0 {
		return fmt.Errorf("machine: op_cache.entries: %d (must be >= 0)", c.OpCache.Entries)
	}
	if c.OpCache.Entries > 0 && c.OpCache.MissPenalty < 1 {
		return fmt.Errorf("machine: op_cache.miss_penalty: %d (must be >= 1 when the cache is enabled)", c.OpCache.MissPenalty)
	}
	if err := c.Faults.Validate("machine: faults."); err != nil {
		return err
	}
	if err := c.Dynamic.validate(c); err != nil {
		return err
	}
	return nil
}

// MaxActiveThreads returns the effective active-thread bound.
func (c *Config) MaxActiveThreads() int {
	if c.MaxThreads == 0 {
		return 64
	}
	return c.MaxThreads
}

// ArithClusters returns the indices of clusters that contain at least one
// IU, FPU, or MEM unit (i.e. non-branch clusters). The compiler schedules
// computation onto these.
func (c *Config) ArithClusters() []int {
	var out []int
	for i, cl := range c.Clusters {
		if cl.Has(IU) || cl.Has(FPU) || cl.Has(MEM) {
			out = append(out, i)
		}
	}
	return out
}

// BranchClusters returns the indices of clusters that contain a branch
// unit.
func (c *Config) BranchClusters() []int {
	var out []int
	for i, cl := range c.Clusters {
		if cl.Has(BR) {
			out = append(out, i)
		}
	}
	return out
}

func (c *Config) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine %q: %d clusters, interconnect=%s, memory=%s", c.Name, len(c.Clusters), c.Interconnect, c.Memory.Name)
	return b.String()
}

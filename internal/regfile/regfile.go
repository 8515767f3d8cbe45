// Package regfile implements per-thread register state with data presence
// bits. Each thread owns one logical register file per cluster; an
// operation's sources must be valid (present) before it may issue, issuing
// clears the destination's presence bit, and writeback sets it (Section 2
// of the paper, "Intra-thread Synchronization").
package regfile

import (
	"fmt"

	"pcoup/internal/isa"
)

// File is one thread's logical register file in one cluster. Registers
// are allocated on demand; the compiler assumes an unbounded register
// space and reports peak usage.
type File struct {
	vals  []isa.Value
	valid []bool
	peak  int
}

// NewFile returns an empty register file.
func NewFile() *File { return &File{} }

func (f *File) grow(idx int) {
	for len(f.vals) <= idx {
		f.vals = append(f.vals, isa.Value{})
		f.valid = append(f.valid, true)
	}
	if idx+1 > f.peak {
		f.peak = idx + 1
	}
}

// Valid reports whether register idx holds valid data. Registers never
// written are considered valid (they hold an undefined zero), matching a
// machine whose presence bits reset to full.
func (f *File) Valid(idx int) bool {
	if idx >= len(f.valid) {
		return true
	}
	return f.valid[idx]
}

// Read returns the value of register idx. Reading an invalid register is
// a scoreboard violation; callers must check Valid first.
func (f *File) Read(idx int) isa.Value {
	if idx >= len(f.vals) {
		return isa.Value{}
	}
	return f.vals[idx]
}

// ClearValid marks register idx as pending (issued but not written back).
func (f *File) ClearValid(idx int) {
	f.grow(idx)
	f.valid[idx] = false
}

// Write stores v into register idx and sets its presence bit.
func (f *File) Write(idx int, v isa.Value) {
	f.grow(idx)
	f.vals[idx] = v
	f.valid[idx] = true
}

// Peak returns the highest register index used plus one.
func (f *File) Peak() int { return f.peak }

// PendingCount returns the number of registers with cleared presence bits
// (results still in flight).
func (f *File) PendingCount() int {
	n := 0
	for _, v := range f.valid {
		if !v {
			n++
		}
	}
	return n
}

// FileState is a File's complete serializable state (checkpointing).
type FileState struct {
	Vals  []isa.Value `json:"vals,omitempty"`
	Valid []bool      `json:"valid,omitempty"`
	Peak  int         `json:"peak,omitempty"`
}

// State captures the file's state.
func (f *File) State() FileState {
	return FileState{
		Vals:  append([]isa.Value(nil), f.vals...),
		Valid: append([]bool(nil), f.valid...),
		Peak:  f.peak,
	}
}

// SetState restores state previously captured with State, which holds
// one value and one presence bit per register.
func (f *File) SetState(st FileState) error {
	if len(st.Vals) != len(st.Valid) || len(st.Vals) > isa.MaxRegIndex+1 {
		return fmt.Errorf("regfile: snapshot has %d values and %d presence bits (want equal counts, at most %d)",
			len(st.Vals), len(st.Valid), isa.MaxRegIndex+1)
	}
	f.vals = append([]isa.Value(nil), st.Vals...)
	f.valid = append([]bool(nil), st.Valid...)
	f.peak = st.Peak
	return nil
}

// Set is one thread's complete register state: one File per cluster.
type Set struct {
	files []*File
}

// NewSet creates register files for numClusters clusters.
func NewSet(numClusters int) *Set {
	s := &Set{files: make([]*File, numClusters)}
	for i := range s.files {
		s.files[i] = NewFile()
	}
	return s
}

// File returns the register file for a cluster.
func (s *Set) File(cluster int) *File {
	if cluster < 0 || cluster >= len(s.files) {
		panic(fmt.Sprintf("regfile: cluster %d out of range", cluster))
	}
	return s.files[cluster]
}

// Valid reports whether the referenced register is present.
func (s *Set) Valid(r isa.RegRef) bool { return s.File(r.Cluster).Valid(r.Index) }

// Read returns the referenced register's value.
func (s *Set) Read(r isa.RegRef) isa.Value { return s.File(r.Cluster).Read(r.Index) }

// ClearValid clears the referenced register's presence bit.
func (s *Set) ClearValid(r isa.RegRef) { s.File(r.Cluster).ClearValid(r.Index) }

// Write writes the referenced register and sets its presence bit.
func (s *Set) Write(r isa.RegRef, v isa.Value) { s.File(r.Cluster).Write(r.Index, v) }

// OperandValid reports whether an operand is readable (immediates always
// are).
func (s *Set) OperandValid(o isa.Operand) bool {
	if o.Kind == isa.OperandImm {
		return true
	}
	return s.Valid(o.Reg)
}

// OperandValue reads an operand's value.
func (s *Set) OperandValue(o isa.Operand) isa.Value {
	if o.Kind == isa.OperandImm {
		return o.Imm
	}
	return s.Read(o.Reg)
}

// PeakPerCluster returns peak register usage per cluster.
func (s *Set) PeakPerCluster() []int {
	out := make([]int, len(s.files))
	for i, f := range s.files {
		out[i] = f.Peak()
	}
	return out
}

// PendingCount returns the total number of registers awaiting writeback
// across all clusters.
func (s *Set) PendingCount() int {
	n := 0
	for _, f := range s.files {
		n += f.PendingCount()
	}
	return n
}

// State captures every cluster file's state.
func (s *Set) State() []FileState {
	out := make([]FileState, len(s.files))
	for i, f := range s.files {
		out[i] = f.State()
	}
	return out
}

// SetState restores a state previously captured with State.
func (s *Set) SetState(states []FileState) error {
	if len(states) != len(s.files) {
		return fmt.Errorf("regfile: snapshot has %d clusters, set has %d", len(states), len(s.files))
	}
	for i := range s.files {
		if err := s.files[i].SetState(states[i]); err != nil {
			return err
		}
	}
	return nil
}

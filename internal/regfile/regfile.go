// Package regfile implements per-thread register state with data presence
// bits. Each thread owns one logical register file per cluster; an
// operation's sources must be valid (present) before it may issue, issuing
// clears the destination's presence bit, and writeback sets it (Section 2
// of the paper, "Intra-thread Synchronization").
//
// A Set is sized when it is made: the caller names how many registers
// each cluster's file holds (the simulator gives every thread the
// registers its code segment names), and one backing array holds the
// values and one the presence bits of all clusters, cluster 0's
// registers first. Indexing a register beyond its file panics, like any
// out-of-range slice index. ValidAt and ReadAt read a register by its
// flat index into the backing arrays (see AppendBases), for callers
// that compute each cluster's offset once and read many registers.
package regfile

import (
	"fmt"

	"pcoup/internal/isa"
)

// File is one thread's logical register file in one cluster, a window
// onto its Set's backing arrays. Registers never written hold an
// undefined zero and are present, matching a machine whose presence
// bits reset to full.
type File struct {
	vals []isa.Value
	// pending holds the complemented presence bits, so a fresh file's
	// zeroed array reads as all present.
	pending []bool
	peak    int
}

func (f *File) touch(idx int) {
	if idx >= f.peak {
		f.peak = idx + 1
	}
}

// Valid reports whether register idx holds valid data.
func (f *File) Valid(idx int) bool { return !f.pending[idx] }

// Read returns the value of register idx. Reading an invalid register is
// a scoreboard violation; callers must check Valid first.
func (f *File) Read(idx int) isa.Value { return f.vals[idx] }

// ClearValid marks register idx as pending (issued but not written back).
func (f *File) ClearValid(idx int) {
	f.touch(idx)
	f.pending[idx] = true
}

// Write stores v into register idx and sets its presence bit.
func (f *File) Write(idx int, v isa.Value) {
	f.touch(idx)
	f.vals[idx] = v
	f.pending[idx] = false
}

// Size returns the number of registers the file holds.
func (f *File) Size() int { return len(f.vals) }

// Peak returns the highest register index used plus one.
func (f *File) Peak() int { return f.peak }

// PendingCount returns the number of registers with cleared presence bits
// (results still in flight).
func (f *File) PendingCount() int {
	n := 0
	for _, p := range f.pending[:f.peak] {
		if p {
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

// State captures the file's state: the value and presence bit of each
// register below the peak (no register above it was ever touched).
func (f *File) State() FileState {
	st := FileState{Vals: append([]isa.Value(nil), f.vals[:f.peak]...), Peak: f.peak}
	if f.peak > 0 {
		st.Valid = make([]bool, f.peak)
		for i, p := range f.pending[:f.peak] {
			st.Valid[i] = !p
		}
	}
	return st
}

// SetState restores state previously captured with State, which holds
// one value and one presence bit per register up to its peak. A state
// with more registers than the file holds is one no run of the file's
// code produces, and is rejected.
func (f *File) SetState(st FileState) error {
	if len(st.Vals) != len(st.Valid) || st.Peak != len(st.Vals) || st.Peak > len(f.vals) {
		return fmt.Errorf("regfile: snapshot has %d values, %d presence bits and peak %d (want all equal, at most %d)",
			len(st.Vals), len(st.Valid), st.Peak, len(f.vals))
	}
	clear(f.vals[copy(f.vals, st.Vals):])
	for i := range f.pending {
		f.pending[i] = i < len(st.Valid) && !st.Valid[i]
	}
	f.peak = st.Peak
	return nil
}

// Set is one thread's complete register state: one File per cluster.
type Set struct {
	files []File
	// vals and pending are the backing arrays of every file's values
	// and presence bits.
	vals    []isa.Value
	pending []bool
}

// NewSet creates register files for len(sizes) clusters, sizes[c]
// registers in cluster c, all present and zero.
func NewSet(sizes []int) Set {
	total := 0
	for _, n := range sizes {
		total += n
	}
	vals := make([]isa.Value, total)
	pending := make([]bool, total)
	s := Set{files: make([]File, len(sizes)), vals: vals, pending: pending}
	at := 0
	for c, n := range sizes {
		s.files[c] = File{vals: vals[at : at+n : at+n], pending: pending[at : at+n : at+n]}
		at += n
	}
	return s
}

// AppendBases appends to dst the flat index of register 0 of each
// cluster's file in a Set made by NewSet(sizes), and returns the
// extended slice: register r of such a Set sits at flat index
// bases[r.Cluster] + r.Index.
func AppendBases(dst, sizes []int) []int {
	at := 0
	for _, n := range sizes {
		dst = append(dst, at)
		at += n
	}
	return dst
}

// Valid reports whether the referenced register is present.
func (s *Set) Valid(r isa.RegRef) bool { return s.files[r.Cluster].Valid(r.Index) }

// ValidAt reports whether the register at flat index i (see
// AppendBases) is present. Only a register its file holds has a
// meaningful flat index: one past a file's end reads the next file's
// register 0.
func (s *Set) ValidAt(i int) bool { return !s.pending[i] }

// ReadAt returns the value of the register at flat index i.
func (s *Set) ReadAt(i int) isa.Value { return s.vals[i] }

// Read returns the referenced register's value.
func (s *Set) Read(r isa.RegRef) isa.Value { return s.files[r.Cluster].Read(r.Index) }

// ClearValid clears the referenced register's presence bit.
func (s *Set) ClearValid(r isa.RegRef) { s.files[r.Cluster].ClearValid(r.Index) }

// Write writes the referenced register and sets its presence bit.
func (s *Set) Write(r isa.RegRef, v isa.Value) { s.files[r.Cluster].Write(r.Index, v) }

// Has reports whether the set holds the referenced register.
func (s *Set) Has(r isa.RegRef) bool {
	return r.Cluster >= 0 && r.Cluster < len(s.files) && r.Index >= 0 && r.Index < s.files[r.Cluster].Size()
}

// PeakPerCluster returns peak register usage per cluster.
func (s *Set) PeakPerCluster() []int {
	out := make([]int, len(s.files))
	for i := range s.files {
		out[i] = s.files[i].Peak()
	}
	return out
}

// PendingCount returns the total number of registers awaiting writeback
// across all clusters.
func (s *Set) PendingCount() int {
	n := 0
	for i := range s.files {
		n += s.files[i].PendingCount()
	}
	return n
}

// State captures every cluster file's state.
func (s *Set) State() []FileState {
	out := make([]FileState, len(s.files))
	for i := range s.files {
		out[i] = s.files[i].State()
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

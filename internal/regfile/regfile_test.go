package regfile

import (
	"testing"
	"testing/quick"

	"pcoup/internal/isa"
)

// newFile returns the single file of a one-cluster set of n registers.
func newFile(n int) *File {
	s := NewSet([]int{n})
	return &s.files[0]
}

func TestPresenceProtocol(t *testing.T) {
	f := newFile(8)
	// Unwritten registers read as valid (presence bits reset to full).
	if !f.Valid(5) {
		t.Error("fresh register should be valid")
	}
	f.ClearValid(5)
	if f.Valid(5) {
		t.Error("ClearValid did not clear")
	}
	f.Write(5, isa.Int(9))
	if !f.Valid(5) || f.Read(5).AsInt() != 9 {
		t.Error("Write did not set value and presence")
	}
}

func TestPeakTracksHighWater(t *testing.T) {
	f := newFile(16)
	if f.Peak() != 0 || f.Size() != 16 {
		t.Errorf("fresh file: Peak = %d, Size = %d, want 0, 16", f.Peak(), f.Size())
	}
	f.Write(0, isa.Int(1))
	f.Write(9, isa.Int(1))
	f.Write(3, isa.Int(1))
	if f.Peak() != 10 {
		t.Errorf("Peak = %d, want 10", f.Peak())
	}
	// State covers the registers below the peak only, however large the
	// file, and restores into a file of any size that holds them.
	st := f.State()
	if len(st.Vals) != 10 || len(st.Valid) != 10 || st.Peak != 10 {
		t.Fatalf("State has %d values, %d presence bits, peak %d; want 10 each", len(st.Vals), len(st.Valid), st.Peak)
	}
	g := newFile(10)
	if err := g.SetState(st); err != nil || g.Peak() != 10 || g.Read(9).AsInt() != 1 {
		t.Errorf("SetState into a 10-register file: err %v, peak %d", err, g.Peak())
	}
	if err := newFile(9).SetState(st); err == nil {
		t.Error("SetState accepted 10 registers into a 9-register file")
	}
}

func TestPendingCount(t *testing.T) {
	f := newFile(2)
	f.ClearValid(0)
	f.ClearValid(1)
	f.Write(0, isa.Int(1))
	if f.PendingCount() != 1 {
		t.Errorf("PendingCount = %d, want 1", f.PendingCount())
	}
}

func TestSetRouting(t *testing.T) {
	s := NewSet([]int{3, 3, 3})
	r0 := isa.RegRef{Cluster: 0, Index: 2}
	r2 := isa.RegRef{Cluster: 2, Index: 2}
	s.Write(r0, isa.Int(10))
	s.Write(r2, isa.Float(2.5))
	if s.Read(r0).AsInt() != 10 {
		t.Error("cluster 0 read")
	}
	if s.Read(r2).AsFloat() != 2.5 {
		t.Error("cluster 2 read")
	}
	// Same index, different cluster: distinct storage.
	if s.Read(isa.RegRef{Cluster: 1, Index: 2}).AsInt() != 0 {
		t.Error("clusters share storage")
	}
	s.ClearValid(r0)
	if s.Valid(r0) || !s.Valid(r2) {
		t.Error("ClearValid crossed clusters")
	}
	if got := s.PeakPerCluster(); got[0] != 3 || got[1] != 0 || got[2] != 3 {
		t.Errorf("PeakPerCluster = %v", got)
	}
	if s.PendingCount() != 1 {
		t.Errorf("PendingCount = %d", s.PendingCount())
	}
}

// TestClusterRangePanics: a register outside the set, by cluster or by
// index, is no register of the thread: Has says so, and touching it
// panics.
func TestClusterRangePanics(t *testing.T) {
	s := NewSet([]int{2, 1})
	for _, r := range []isa.RegRef{{Cluster: 2, Index: 0}, {Cluster: 1, Index: 1}} {
		if s.Has(r) {
			t.Errorf("Has(%s) on sizes [2 1]", r)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Valid(%s) out of range did not panic", r)
				}
			}()
			s.Valid(r)
		}()
	}
	if !s.Has(isa.RegRef{Cluster: 1, Index: 0}) {
		t.Error("Has(c1.r0) on sizes [2 1]")
	}
}

// TestWriteReadProperty: a write is always observed by the next read of
// the same register and never disturbs other registers.
func TestWriteReadProperty(t *testing.T) {
	f := newFile(64)
	shadow := map[int]int64{}
	check := func(idxRaw uint8, val int64) bool {
		idx := int(idxRaw % 64)
		f.Write(idx, isa.Int(val))
		shadow[idx] = val
		for k, v := range shadow {
			if f.Read(k).AsInt() != v {
				return false
			}
			if !f.Valid(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// TestFlatReadsMatchFiles: for every register of a Set whose clusters
// have uneven sizes (an empty one included), the flat index from
// AppendBases reads the same presence bit and value as Valid and Read:
// on a fresh set, after ClearValid and Write, and after a SetState
// restore into a fresh set.
func TestFlatReadsMatchFiles(t *testing.T) {
	sizes := []int{3, 0, 5, 1}
	bases := AppendBases(nil, sizes)
	check := func(what string, s *Set) {
		t.Helper()
		for c, n := range sizes {
			for i := 0; i < n; i++ {
				r := isa.RegRef{Cluster: c, Index: i}
				at := bases[c] + i
				if s.ValidAt(at) != s.Valid(r) || s.ReadAt(at) != s.Read(r) {
					t.Errorf("%s: %s at flat %d reads (%v, %v), Valid/Read (%v, %v)",
						what, r, at, s.ValidAt(at), s.ReadAt(at), s.Valid(r), s.Read(r))
				}
			}
		}
	}
	s := NewSet(sizes)
	check("fresh", &s)
	for c, n := range sizes {
		for i := 0; i < n; i++ {
			r := isa.RegRef{Cluster: c, Index: i}
			if (c+i)%2 == 0 {
				s.ClearValid(r)
			} else {
				s.Write(r, isa.Int(int64(10*c+i)))
			}
		}
	}
	s.ClearValid(isa.RegRef{Cluster: 2, Index: 1}) // pending after a write
	check("after ClearValid/Write", &s)
	restored := NewSet(sizes)
	if err := restored.SetState(s.State()); err != nil {
		t.Fatal(err)
	}
	check("after SetState", &restored)
	for c, n := range sizes {
		for i := 0; i < n; i++ {
			r := isa.RegRef{Cluster: c, Index: i}
			if restored.Valid(r) != s.Valid(r) || restored.Read(r) != s.Read(r) {
				t.Errorf("SetState: %s restored as (%v, %v), was (%v, %v)", r, restored.Valid(r), restored.Read(r), s.Valid(r), s.Read(r))
			}
		}
	}
}

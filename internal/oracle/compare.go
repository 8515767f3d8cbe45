package oracle

import (
	"sort"
	"strings"

	"pcoup/internal/isa"
)

// Divergence is the first place a machine's final memory image departs
// from the oracle's globals.
type Divergence struct {
	Global string
	// Missing reports that the global is absent from the program's data
	// layout; Index, Got and Want are then unset.
	Missing bool
	Index   int64
	Got     isa.Value // the machine's word
	Want    isa.Value // the oracle's word
}

// Compare checks every global of want (Run's result) against a
// machine's memory, locating each global through the program's data
// layout and reading words with read. Hidden synchronization cells
// (names beginning with "_") are skipped. Globals are visited in name
// order, so the reported divergence is the same on every call; nil
// means the images agree.
func Compare(want map[string][]isa.Value, data []isa.DataSegment, read func(addr int64) isa.Value) *Divergence {
	addrs := make(map[string]int64, len(data))
	for _, d := range data {
		addrs[d.Name] = d.Addr
	}
	names := make([]string, 0, len(want))
	for name := range want {
		if !strings.HasPrefix(name, "_") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		base, ok := addrs[name]
		if !ok {
			return &Divergence{Global: name, Missing: true}
		}
		for i, w := range want[name] {
			if got := read(base + int64(i)); !got.Equal(w) {
				return &Divergence{Global: name, Index: int64(i), Got: got, Want: w}
			}
		}
	}
	return nil
}

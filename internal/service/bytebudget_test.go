//go:build !race

package service

import (
	"runtime"
	"testing"

	"pcoup/internal/compiler"
)

// The byte budgets of a program request. Garbage collection work scales
// with the bytes allocated, and the service allocates most of them on
// the program path, so two numbers are pinned: the bytes one parsed
// node costs (the node, its share of its parent's child slice, and slab
// slack) and the bytes one in-process program request allocates
// (normalize → park → build → run → verify, as programRequest runs it),
// both averaged over requestCorpus. CI fails if either regresses past
// its budget. Excluded under -race because race instrumentation changes
// allocation.
const (
	// parseBytesPerNode is the parse budget: the reader measures 89.0
	// bytes per node (a 64-byte node, an 8-byte child pointer, slab
	// slack and escaped strings). The budget allows 10%.
	parseBytesPerNode = 98.0
	// requestBytes is the request budget: a request measures about
	// 161,900 bytes. The budget allows 10%.
	requestBytes = 178_000
)

// allocatedBytes returns the bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestByteBudget(t *testing.T) {
	srcs := requestCorpus()
	t.Run("parse", func(t *testing.T) {
		lim := compiler.ServiceLimits()
		nodes := 0
		for _, src := range srcs {
			forms, err := compiler.ParseBounded(src, lim)
			if err != nil {
				t.Fatal(err)
			}
			nodes += countNodes(forms)
		}
		bytes := allocatedBytes(func() {
			for _, src := range srcs {
				if _, err := compiler.ParseBounded(src, lim); err != nil {
					t.Fatal(err)
				}
			}
		})
		perNode := float64(bytes) / float64(nodes)
		t.Logf("%d bytes over %d nodes = %.1f bytes/node (budget %.1f)", bytes, nodes, perNode, parseBytesPerNode)
		if perNode > parseBytesPerNode {
			t.Errorf("parse allocates %.1f bytes/node, budget is %.1f", perNode, parseBytesPerNode)
		}
	})
	t.Run("request", func(t *testing.T) {
		srv := New(Options{})
		pass := func(round int) {
			for i, src := range srcs {
				programRequest(t, srv, src, round*len(srcs)+i)
			}
		}
		pass(0) // warm the memory-image pool
		perRequest := float64(allocatedBytes(func() { pass(1) })) / float64(len(srcs))
		t.Logf("%.0f bytes/request over %d programs (budget %d)", perRequest, len(srcs), requestBytes)
		if perRequest > requestBytes {
			t.Errorf("a program request allocates %.0f bytes, budget is %d", perRequest, requestBytes)
		}
	})
}

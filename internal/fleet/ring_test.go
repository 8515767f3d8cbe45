package fleet

import (
	"fmt"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("sha256:%064d", i)
	}
	return keys
}

func owners(r *ring, keys []string) map[string]string {
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		out[k] = r.owner(k)
	}
	return out
}

// TestRingLeaveMovesOnlyOrphanedKeys: removing one member must remap
// exactly the keys it owned — every other key keeps its owner (the
// property that keeps the surviving backends' caches hot through an
// ejection).
func TestRingLeaveMovesOnlyOrphanedKeys(t *testing.T) {
	members := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	r := newRing(0)
	for _, m := range members {
		r.add(m)
	}
	keys := testKeys(5000)
	before := owners(r, keys)

	const gone = "http://c:1"
	r.remove(gone)
	after := owners(r, keys)

	moved := 0
	for _, k := range keys {
		switch {
		case before[k] != gone && after[k] != before[k]:
			t.Fatalf("key %s moved from surviving member %s to %s", k, before[k], after[k])
		case before[k] == gone:
			moved++
			if after[k] == gone {
				t.Fatalf("key %s still owned by removed member", k)
			}
		}
	}
	if moved == 0 {
		t.Fatal("removed member owned no keys; distribution is broken")
	}
}

// TestRingJoinBoundedMovement: adding a member to an n-member ring must
// move only keys that now belong to the newcomer — roughly 1/(n+1) of
// them, never to a different old member.
func TestRingJoinBoundedMovement(t *testing.T) {
	members := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	r := newRing(0)
	for _, m := range members {
		r.add(m)
	}
	keys := testKeys(5000)
	before := owners(r, keys)

	const joined = "http://e:1"
	r.add(joined)
	after := owners(r, keys)

	moved := 0
	for _, k := range keys {
		if after[k] == before[k] {
			continue
		}
		if after[k] != joined {
			t.Fatalf("key %s moved between old members: %s -> %s", k, before[k], after[k])
		}
		moved++
	}
	// Expect ~1/5 of the keys; allow generous slack for hash variance.
	if lo, hi := len(keys)/10, len(keys)/2; moved < lo || moved > hi {
		t.Fatalf("join moved %d of %d keys; want between %d and %d", moved, len(keys), lo, hi)
	}
}

// TestRingRejoinRestoresOwnership: leave followed by re-join restores
// the original mapping exactly (re-admitted backends find their old
// cache shard routed back to them).
func TestRingRejoinRestoresOwnership(t *testing.T) {
	members := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := newRing(0)
	for _, m := range members {
		r.add(m)
	}
	keys := testKeys(2000)
	before := owners(r, keys)
	r.remove("http://b:1")
	r.add("http://b:1")
	after := owners(r, keys)
	for _, k := range keys {
		if before[k] != after[k] {
			t.Fatalf("key %s changed owner across leave/rejoin: %s -> %s", k, before[k], after[k])
		}
	}
}

// TestRingDistribution: with virtual nodes, no member owns a wildly
// disproportionate share.
func TestRingDistribution(t *testing.T) {
	members := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	r := newRing(0)
	for _, m := range members {
		r.add(m)
	}
	keys := testKeys(8000)
	counts := map[string]int{}
	for _, k := range keys {
		counts[r.owner(k)]++
	}
	for _, m := range members {
		share := float64(counts[m]) / float64(len(keys))
		if share < 0.10 || share > 0.45 {
			t.Fatalf("member %s owns %.1f%% of keys; want a roughly even split", m, 100*share)
		}
	}
}

// TestRingSeq: seq lists every member exactly once, starting with the
// owner (the failover order).
func TestRingSeq(t *testing.T) {
	members := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := newRing(0)
	for _, m := range members {
		r.add(m)
	}
	for _, k := range testKeys(100) {
		seq := r.seq(k)
		if len(seq) != len(members) {
			t.Fatalf("seq(%s) has %d members, want %d", k, len(seq), len(members))
		}
		if seq[0] != r.owner(k) {
			t.Fatalf("seq(%s)[0] = %s, owner = %s", k, seq[0], r.owner(k))
		}
		seen := map[string]bool{}
		for _, m := range seq {
			if seen[m] {
				t.Fatalf("seq(%s) repeats %s", k, m)
			}
			seen[m] = true
		}
	}
}

// TestRingEmpty: an empty ring owns nothing and panics nowhere.
func TestRingEmpty(t *testing.T) {
	r := newRing(0)
	if got := r.owner("k"); got != "" {
		t.Fatalf("empty ring owner = %q, want empty", got)
	}
	if got := r.seq("k"); len(got) != 0 {
		t.Fatalf("empty ring seq = %v, want empty", got)
	}
}

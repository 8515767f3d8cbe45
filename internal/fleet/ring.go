// Package fleet is the scale-out layer over multiple pcserved backends:
// a gateway (cmd/pcfleet) that speaks the same job API and fans work out
// across a health-checked pool with cache-affinity routing.
//
// Results are content-addressed and byte-identical across runs (see
// internal/service), so routing a cell by its content key gives every
// backend a naturally hot, disjoint shard of the result cache: repeat
// submissions of the same cell always land on the same backend. One
// rule places work: the first healthy backend in the key's ring order,
// skipping an exclude set (Pool.next). The dispatcher adds failover
// (dead backends' cells re-route and retry, safe because every backend
// returns the same bytes).
package fleet

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// replicas is the number of virtual nodes per backend. More replicas
// smooth the key distribution; 128 keeps the worst backend within a few
// percent of the mean for small pools.
const replicas = 128

// ring is a consistent-hash ring over backend names. It is not
// goroutine-safe; the pool guards it.
type ring struct {
	members []string            // sorted, for deterministic rebuilds
	points  []ringPoint         // sorted by hash
	index   map[string]struct{} // membership
}

type ringPoint struct {
	hash   uint64
	member string
}

func newRing() *ring {
	return &ring{index: map[string]struct{}{}}
}

// hashKey is FNV-64a: deterministic across processes and restarts, so a
// restarted gateway routes identically and backend caches stay hot.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// add inserts a member (idempotent).
func (r *ring) add(member string) {
	if _, ok := r.index[member]; ok {
		return
	}
	r.index[member] = struct{}{}
	r.members = append(r.members, member)
	sort.Strings(r.members)
	r.rebuild()
}

// remove deletes a member (idempotent).
func (r *ring) remove(member string) {
	if _, ok := r.index[member]; !ok {
		return
	}
	delete(r.index, member)
	for i, m := range r.members {
		if m == member {
			r.members = append(r.members[:i], r.members[i+1:]...)
			break
		}
	}
	r.rebuild()
}

func (r *ring) rebuild() {
	r.points = r.points[:0]
	for _, m := range r.members {
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, ringPoint{hashKey(m + "#" + strconv.Itoa(i)), m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
}

// owner returns the member owning key (its successor on the ring), or ""
// for an empty ring.
func (r *ring) owner(key string) string {
	seq := r.seq(key)
	if len(seq) == 0 {
		return ""
	}
	return seq[0]
}

// seq returns every member once, in ring order starting from key's
// successor. seq[0] is the key's owner; the rest are the failover order
// (each subsequent entry is the next distinct node clockwise).
func (r *ring) seq(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, len(r.members))
	seen := make(map[string]struct{}, len(r.members))
	for i := 0; i < len(r.points) && len(out) < len(r.members); i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, ok := seen[p.member]; ok {
			continue
		}
		seen[p.member] = struct{}{}
		out = append(out, p.member)
	}
	return out
}

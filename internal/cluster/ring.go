package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Consistent hashing over canonical instance fingerprints. The point is
// cache sharding: each worker keeps its own result LRU, and the ring
// sends every occurrence of a given fingerprint to the same worker, so
// a repeat request anywhere in the fleet lands on the node that already
// holds its result. Virtual nodes smooth the key distribution; when a
// worker dies its keys spill to the next node on the ring (and only
// those keys move), which Sequence exposes as a per-key failover order.

// ringVnodes is the virtual-node count per worker — enough to keep the
// spread within a few percent of uniform for small fleets without
// making the ring scan noticeable.
const ringVnodes = 64

// Ring is an immutable consistent-hash ring over worker addresses.
// Build once from the fleet roster; health is the Dispatcher's concern
// (it walks Sequence past downed workers rather than mutating the
// ring, so a worker's keys come home when it recovers).
type Ring struct {
	points []ringPoint // sorted by hash
	addrs  []string
}

type ringPoint struct {
	hash uint64
	addr string
}

// NewRing builds a ring over the given worker addresses. Duplicates
// collapse; an empty roster yields an empty ring (Owner returns "").
func NewRing(addrs []string) *Ring {
	seen := make(map[string]bool, len(addrs))
	r := &Ring{}
	for _, a := range addrs {
		if a == "" || seen[a] {
			continue
		}
		seen[a] = true
		r.addrs = append(r.addrs, a)
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", a, v)), addr: a})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on address so the ring is independent of roster order.
		return r.points[i].addr < r.points[j].addr
	})
	return r
}

// Addrs returns the distinct worker addresses on the ring.
func (r *Ring) Addrs() []string { return append([]string(nil), r.addrs...) }

// Len returns the number of distinct workers.
func (r *Ring) Len() int { return len(r.addrs) }

// Sequence returns every worker in the order they should be tried for
// key: the owner first, then ring successors (each distinct worker
// once). This is the failover order — the key's cache entry can only
// live on a node the key was previously dispatched to, and earlier
// nodes in the sequence are strictly more likely to hold it.
func (r *Ring) Sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	seq := make([]string, 0, len(r.addrs))
	seen := make(map[string]bool, len(r.addrs))
	start := r.locate(key)
	for i := 0; i < len(r.points) && len(seq) < len(r.addrs); i++ {
		addr := r.points[(start+i)%len(r.points)].addr
		if !seen[addr] {
			seen[addr] = true
			seq = append(seq, addr)
		}
	}
	return seq
}

// locate finds the index of the first ring point at or clockwise of
// key's hash.
func (r *Ring) locate(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// hash64 is fnv-1a with a splitmix64-style finalizer. Raw fnv of
// near-identical strings (vnode labels differ only in their suffix)
// leaves the high bits poorly mixed, which shows up directly as wildly
// uneven ring arcs; the finalizer's avalanche fixes the spread.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

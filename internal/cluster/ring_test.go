package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

var ringWorkers = []string{
	"http://127.0.0.1:8081",
	"http://127.0.0.1:8082",
	"http://127.0.0.1:8083",
}

// Ownership must depend only on the roster set, not its order — two
// coordinators configured with shuffled -peers lists must route
// identically or the sharded cache degrades to misses.
func TestRingOrderIndependence(t *testing.T) {
	a := NewRing(ringWorkers)
	b := NewRing([]string{ringWorkers[2], ringWorkers[0], ringWorkers[1], ringWorkers[0]})
	if a.Len() != 3 || b.Len() != 3 {
		t.Fatalf("len = %d, %d; want 3 (duplicates collapse)", a.Len(), b.Len())
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("fingerprint-%d", i)
		if !reflect.DeepEqual(a.Sequence(key), b.Sequence(key)) {
			t.Fatalf("key %q: owner or failover sequence differs by roster order", key)
		}
	}
}

func TestRingSequence(t *testing.T) {
	r := NewRing(ringWorkers)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("fp-%d", i)
		seq := r.Sequence(key)
		if len(seq) != 3 {
			t.Fatalf("sequence covers %d workers, want 3", len(seq))
		}
		if owner := r.points[r.locate(key)].addr; seq[0] != owner {
			t.Fatalf("sequence head %q is not the owner %q", seq[0], owner)
		}
		seen := map[string]bool{}
		for _, a := range seq {
			if seen[a] {
				t.Fatalf("worker %q repeated in sequence", a)
			}
			seen[a] = true
		}
	}
}

// Virtual nodes must spread keys reasonably: with 3 workers no worker
// should fall below half of its fair share over 3000 keys.
func TestRingSpread(t *testing.T) {
	r := NewRing(ringWorkers)
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[r.Sequence(fmt.Sprintf("fp-%d", i))[0]]++
	}
	for _, w := range ringWorkers {
		if counts[w] < keys/6 {
			t.Fatalf("worker %s owns only %d/%d keys: spread too skewed (%v)", w, counts[w], keys, counts)
		}
	}
}

// Removing a worker moves only its keys: every key owned by a surviving
// worker keeps its owner — the property that makes failover (and later
// roster shrink) cache-preserving for the rest of the fleet.
func TestRingRemovalMovesOnlyOrphans(t *testing.T) {
	full := NewRing(ringWorkers)
	reduced := NewRing(ringWorkers[:2])
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("fp-%d", i)
		owner := full.Sequence(key)[0]
		if owner == ringWorkers[2] {
			continue // orphaned key: expected to move
		}
		if got := reduced.Sequence(key)[0]; got != owner {
			t.Fatalf("key %q moved from %q to %q though its owner survived", key, owner, got)
		}
	}
	// And the orphans' new owner is the next worker in the full ring's
	// failover sequence — the node retries would have landed on anyway.
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("fp-%d", i)
		if full.Sequence(key)[0] != ringWorkers[2] {
			continue
		}
		if want := full.Sequence(key)[1]; reduced.Sequence(key)[0] != want {
			t.Fatalf("orphan %q landed on %q, want ring successor %q", key, reduced.Sequence(key)[0], want)
		}
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(nil)
	if r.Sequence("x") != nil || r.Len() != 0 {
		t.Fatal("empty ring must own nothing")
	}
}

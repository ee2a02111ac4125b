package graph

import (
	"math/rand"
	"testing"
)

func TestFingerprintInsertionOrderInvariant(t *testing.T) {
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {1, 3}}
	build := func(order []int) *Graph {
		g := New(4)
		for _, i := range order {
			if err := g.AddEdge(edges[i][0], edges[i][1]); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	want := build([]int{0, 1, 2, 3, 4}).Fingerprint()
	if want == "" {
		t.Fatal("empty fingerprint")
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		order := rng.Perm(len(edges))
		if got := build(order).Fingerprint(); got != want {
			t.Fatalf("permuted insertion order %v changed fingerprint: %s != %s", order, got, want)
		}
	}
}

func TestFingerprintWeightOrderInvariant(t *testing.T) {
	type we struct {
		u, v int
		w    float64
	}
	edges := []we{{0, 1, 2.5}, {1, 2, -1}, {0, 2, 1}, {2, 3, 0.125}}
	build := func(order []int) *Graph {
		g := New(4)
		for _, i := range order {
			if err := g.AddWeightedEdge(edges[i].u, edges[i].v, edges[i].w); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	want := build([]int{0, 1, 2, 3}).Fingerprint()
	if got := build([]int{3, 1, 0, 2}).Fingerprint(); got != want {
		t.Fatalf("weighted insertion order changed fingerprint: %s != %s", got, want)
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	base := New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}} {
		if err := base.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	fp := base.Fingerprint()

	// Different vertex count, same edges.
	bigger := New(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}} {
		if err := bigger.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if bigger.Fingerprint() == fp {
		t.Error("vertex count not hashed")
	}

	// Extra edge.
	more := New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		if err := more.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if more.Fingerprint() == fp {
		t.Error("edge set not hashed")
	}

	// Same edges, one weight changed.
	w := New(4)
	if err := w.AddWeightedEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := w.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if w.Fingerprint() == fp {
		t.Error("weights not hashed")
	}

	// Relabeled vertices are deliberately distinct.
	relabel := New(4)
	for _, e := range [][2]int{{2, 3}, {1, 2}} {
		if err := relabel.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if relabel.Fingerprint() == fp {
		t.Error("relabeled graph should not collide")
	}
}

// TestFingerprintNoCollisionsRandomEnsemble hashes a family of random
// graphs and checks that distinct edge sets never collide (and equal
// edge sets always agree).
func TestFingerprintNoCollisionsRandomEnsemble(t *testing.T) {
	seen := make(map[string]string) // fingerprint → canonical edge string
	for seed := int64(0); seed < 200; seed++ {
		g := ErdosRenyi(8, 0.5, rand.New(rand.NewSource(seed)))
		if g.NumEdges() == 0 {
			continue
		}
		canon := g.String() // Edges() insertion order is generation order; String is canonical enough combined with N
		fp := g.Fingerprint()
		if prev, ok := seen[fp]; ok {
			if prev != canon {
				t.Fatalf("collision: %q and %q share fingerprint %s", prev, canon, fp)
			}
			continue
		}
		seen[fp] = canon
	}
	if len(seen) < 100 {
		t.Fatalf("ensemble too degenerate: only %d distinct graphs", len(seen))
	}
}

// The golden hash of one weighted graph, recorded before Fingerprint
// was rewritten to hash one buffer: MaxCut solve keys in a WAL written
// by an older binary must still find their cache entries.
func TestFingerprintPinned(t *testing.T) {
	const want = "94c8c5edf14abf75719060a044aa5c5d91d9e055a851d571a07aa377304058d1"
	rng := rand.New(rand.NewSource(5))
	g := ErdosRenyiConnected(9, 0.6, rng)
	w := New(g.N)
	edges := g.Edges()
	for _, i := range rng.Perm(len(edges)) {
		weight := float64(rng.Intn(9)-4) + 0.5
		if err := w.AddWeightedEdge(edges[i].V, edges[i].U, weight); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Fingerprint(); got != want {
		t.Errorf("fingerprint moved:\n got %s\nwant %s", got, want)
	}
}

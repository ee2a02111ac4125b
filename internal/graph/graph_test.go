package graph

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddEdgeBasics(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge not symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Error("phantom edge")
	}
	if err := g.AddEdge(1, 0); err == nil {
		t.Error("duplicate edge accepted")
	}
	if err := g.AddEdge(2, 2); err == nil {
		t.Error("self-loop accepted")
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
}

func TestEdgeNormalization(t *testing.T) {
	g := New(4)
	if err := g.AddEdge(3, 1); err != nil {
		t.Fatal(err)
	}
	es := g.Edges()
	if len(es) != 1 || es[0] != (Edge{U: 1, V: 3}) {
		t.Errorf("Edges = %v", es)
	}
}

func TestDegreeAndNeighbors(t *testing.T) {
	g := Path(4) // 0-1-2-3
	for v, want := range []int{1, 2, 2, 1} {
		if g.Degree(v) != want {
			t.Errorf("Degree(%d) = %d, want %d", v, g.Degree(v), want)
		}
	}
}

func TestConnected(t *testing.T) {
	g := Path(4)
	if !g.Connected() {
		t.Error("path should be connected")
	}
	h := New(4)
	mustAdd(h, 0, 1)
	mustAdd(h, 2, 3)
	if h.Connected() {
		t.Error("two components reported connected")
	}
	if !New(0).Connected() || !New(1).Connected() {
		t.Error("trivial graphs should be connected")
	}
}

func TestCutValue(t *testing.T) {
	g := New(2)
	mustAdd(g, 0, 1)
	if g.WeightedCutValue(0b00) != 0 || g.WeightedCutValue(0b11) != 0 {
		t.Error("same-side cut should be 0")
	}
	if g.WeightedCutValue(0b01) != 1 || g.WeightedCutValue(0b10) != 1 {
		t.Error("crossing cut should be 1")
	}
}

func TestMaxCutKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want float64
	}{
		{"single edge", Path(2), 1},
		{"path4", Path(4), 3},
		{"triangle", Cycle(3), 2},
		{"C4", Cycle(4), 4},
		{"C5", Cycle(5), 4},
		{"K4", complete(4), 4},
		{"K5", complete(5), 6},
		{"empty", New(5), 0},
	}
	for _, c := range cases {
		v, assign := c.g.WeightedMaxCut()
		if v != c.want {
			t.Errorf("%s: MaxCut = %v, want %v", c.name, v, c.want)
		}
		if c.g.WeightedCutValue(assign) != v {
			t.Errorf("%s: reported assignment does not achieve reported value", c.name)
		}
	}
}

// On unit weights the weighted cut table is the cut count.
func TestCutTableMatchesCutValue(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := ErdosRenyi(6, 0.5, rng)
	table := g.WeightedCutTable()
	if len(table) != 64 {
		t.Fatalf("table length = %d", len(table))
	}
	for a := uint64(0); a < 64; a++ {
		crossing := 0
		for _, e := range g.Edges() {
			if (a>>uint(e.U))&1 != (a>>uint(e.V))&1 {
				crossing++
			}
		}
		if table[a] != float64(crossing) {
			t.Fatalf("table[%d] = %v != %d crossing edges", a, table[a], crossing)
		}
	}
}

// Property: cut value is invariant under complementing the assignment.
func TestCutComplementInvariance(t *testing.T) {
	f := func(seed int64, a uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := ErdosRenyi(8, 0.5, rng)
		assign := uint64(a)
		comp := ^assign & 0xFF
		return g.WeightedCutValue(assign) == g.WeightedCutValue(comp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: MaxCut is at least half the edges (probabilistic bound holds
// deterministically for the greedy/optimal cut) and at most all edges.
func TestMaxCutBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := ErdosRenyi(7, 0.4, rng)
		mc, _ := g.WeightedMaxCut()
		return 2*mc >= float64(g.NumEdges()) && mc <= float64(g.NumEdges())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMaxCutBipartiteIsAllEdges(t *testing.T) {
	// Even cycles are bipartite: optimal cut severs every edge.
	for _, n := range []int{4, 6, 8} {
		g := Cycle(n)
		if got, _ := g.WeightedMaxCut(); got != float64(n) {
			t.Errorf("C%d MaxCut = %v, want %d", n, got, n)
		}
	}
}

func TestErdosRenyiEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if g := ErdosRenyi(6, 0, rng); g.NumEdges() != 0 {
		t.Error("p=0 graph has edges")
	}
	if g := ErdosRenyi(6, 1, rng); g.NumEdges() != 15 {
		t.Errorf("p=1 graph has %d edges, want 15", g.NumEdges())
	}
}

func TestErdosRenyiEdgeDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	total := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		total += ErdosRenyi(8, 0.5, rng).NumEdges()
	}
	mean := float64(total) / trials
	// Expected 14 edges; allow generous slack for randomness.
	if mean < 12 || mean > 16 {
		t.Errorf("mean edges = %v, want ~14", mean)
	}
}

func TestErdosRenyiConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		g := ErdosRenyiConnected(8, 0.5, rng)
		if !g.Connected() || g.NumEdges() == 0 {
			t.Fatal("ErdosRenyiConnected returned disconnected/empty graph")
		}
	}
}

func TestRandomRegular(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20; i++ {
		g := RandomRegular(8, 3, rng)
		for v := 0; v < 8; v++ {
			if g.Degree(v) != 3 {
				t.Fatalf("vertex %d degree %d, want 3", v, g.Degree(v))
			}
		}
	}
}

func TestRandomRegularRejectsImpossible(t *testing.T) {
	for _, c := range []struct{ n, k int }{{5, 3}, {4, 4}, {3, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RandomRegular(%d,%d) should panic", c.n, c.k)
				}
			}()
			RandomRegular(c.n, c.k, rand.New(rand.NewSource(0)))
		}()
	}
}

func TestRandomRegularZeroK(t *testing.T) {
	g := RandomRegular(6, 0, rand.New(rand.NewSource(0)))
	if g.NumEdges() != 0 {
		t.Error("0-regular graph has edges")
	}
}

func TestCloneIndependent(t *testing.T) {
	g := Cycle(4)
	c := g.Clone()
	mustAdd(c, 0, 2)
	if g.HasEdge(0, 2) {
		t.Error("Clone shares edge storage")
	}
	if c.NumEdges() != g.NumEdges()+1 {
		t.Error("Clone lost edges")
	}
}

func TestString(t *testing.T) {
	g := Path(3)
	if s := g.String(); !strings.Contains(s, "n=3") || !strings.Contains(s, "(0,1)") {
		t.Errorf("String = %q", s)
	}
}

func TestDeterministicGeneration(t *testing.T) {
	g1 := ErdosRenyi(8, 0.5, rand.New(rand.NewSource(99)))
	g2 := ErdosRenyi(8, 0.5, rand.New(rand.NewSource(99)))
	if g1.String() != g2.String() {
		t.Error("same seed produced different graphs")
	}
}

// fromEdges builds an unweighted graph on n vertices.
func fromEdges(n int, edges [][2]int) *Graph {
	g := New(n)
	for _, e := range edges {
		mustAdd(g, e[0], e[1])
	}
	return g
}

// complete is K_n.
func complete(n int) *Graph {
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, [2]int{u, v})
		}
	}
	return fromEdges(n, edges)
}

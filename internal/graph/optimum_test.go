package graph_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"qaoaml/internal/graph"
	"qaoaml/internal/qaoa"
)

// optimum returns the exact MaxCut optimum approximation ratios are
// taken against (qaoa.Problem.OptValue) and the brute-force assignment
// it is the cut of.
func optimum(t *testing.T, g *graph.Graph) (float64, uint64) {
	t.Helper()
	pb, err := qaoa.NewProblem(g)
	if err != nil {
		t.Fatal(err)
	}
	_, _, arg := pb.Inst.BruteForce()
	if got := g.WeightedCutValue(arg); got != pb.OptValue {
		t.Fatalf("brute-force assignment cuts %v, optimum %v", got, pb.OptValue)
	}
	return pb.OptValue, arg
}

func TestMaxCutKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want float64
	}{
		{"single edge", graph.PathGraph(2), 1},
		{"path4", graph.PathGraph(4), 3},
		{"triangle", graph.CycleGraph(3), 2},
		{"C4", graph.CycleGraph(4), 4},
		{"C5", graph.CycleGraph(5), 4},
		{"K4", graph.Complete(4), 4},
		{"K5", graph.Complete(5), 6},
	}
	for _, c := range cases {
		if v, _ := optimum(t, c.g); v != c.want {
			t.Errorf("%s: MaxCut = %v, want %v", c.name, v, c.want)
		}
	}
	// An edgeless graph has no positive optimum to take a ratio against.
	if _, err := qaoa.NewProblem(graph.New(5)); err == nil {
		t.Error("edgeless graph accepted")
	}
}

// Property: MaxCut is at least half the edges (probabilistic bound holds
// deterministically for the greedy/optimal cut) and at most all edges.
func TestMaxCutBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.ErdosRenyi(7, 0.4, rng)
		pb, err := qaoa.NewProblem(g)
		if err != nil {
			return g.NumEdges() == 0 // only an edgeless graph is refused
		}
		mc := pb.OptValue
		return 2*mc >= float64(g.NumEdges()) && mc <= float64(g.NumEdges())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMaxCutBipartiteIsAllEdges(t *testing.T) {
	// Even cycles are bipartite: optimal cut severs every edge.
	for _, n := range []int{4, 6, 8} {
		if got, _ := optimum(t, graph.CycleGraph(n)); got != float64(n) {
			t.Errorf("C%d MaxCut = %v, want %d", n, got, n)
		}
	}
}

func TestWeightedOptimumKnown(t *testing.T) {
	// Triangle with one heavy edge: optimum cuts the heavy edge plus one
	// light edge.
	g := graph.New(3)
	graph.MustAddW(t, g, 0, 1, 10)
	graph.MustAddW(t, g, 1, 2, 1)
	graph.MustAddW(t, g, 0, 2, 1)
	if v, _ := optimum(t, g); v != 11 {
		t.Errorf("weighted MaxCut = %v, want 11", v)
	}
}

func TestWeightedOptimumNegativeWeights(t *testing.T) {
	// A negative edge should stay uncut at the optimum.
	g := graph.New(3)
	graph.MustAddW(t, g, 0, 1, 5)
	graph.MustAddW(t, g, 1, 2, -3)
	v, assign := optimum(t, g)
	if v != 5 {
		t.Errorf("weighted MaxCut = %v, want 5", v)
	}
	if (assign>>1)&1 != (assign>>2)&1 {
		t.Error("negative edge cut at optimum")
	}
}

// Bipartite families: MaxCut cuts every edge.
func TestStar(t *testing.T) {
	g := graph.FromEdges(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	if got, _ := optimum(t, g); got != 4 {
		t.Errorf("star MaxCut = %v, want 4", got)
	}
}

func TestCompleteBipartite(t *testing.T) {
	var edges [][2]int
	for u := 0; u < 3; u++ {
		for v := 3; v < 7; v++ {
			edges = append(edges, [2]int{u, v})
		}
	}
	if got, _ := optimum(t, graph.FromEdges(7, edges)); got != 12 {
		t.Errorf("K(3,4) MaxCut = %v, want 12 (bipartite)", got)
	}
}

func TestGrid2D(t *testing.T) {
	// 3×4 grid, vertices row-major: 3 rows × 3 horizontal + 2 × 4
	// vertical = 17 edges.
	var edges [][2]int
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			if c+1 < 4 {
				edges = append(edges, [2]int{4*r + c, 4*r + c + 1})
			}
			if r+1 < 3 {
				edges = append(edges, [2]int{4*r + c, 4*(r+1) + c})
			}
		}
	}
	g := graph.FromEdges(12, edges)
	if !g.Connected() {
		t.Error("grid not connected")
	}
	if got, _ := optimum(t, g); got != 17 {
		t.Errorf("grid MaxCut = %v, want 17", got)
	}
}

// Two K4 cliques joined by one bridge: connected, and the bridge plus
// the best cut of each K4 (4 of 6 edges) is the optimum.
func TestBarbell(t *testing.T) {
	var edges [][2]int
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			edges = append(edges, [2]int{u, v}, [2]int{4 + u, 4 + v})
		}
	}
	g := graph.FromEdges(8, append(edges, [2]int{3, 4}))
	if !g.Connected() {
		t.Error("barbell not connected")
	}
	if got, _ := optimum(t, g); got != 9 {
		t.Errorf("barbell MaxCut = %v, want 9", got)
	}
}

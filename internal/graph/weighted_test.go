package graph

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddWeightedEdge(t *testing.T) {
	g := New(3)
	if err := g.AddWeightedEdge(0, 1, 2.5); err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Error("graph with weight 2.5 not reported weighted")
	}
	if g.IntegerWeighted() {
		t.Error("2.5 reported as integer weight")
	}
	if got := g.Weights(); len(got) != 1 || got[0] != 2.5 {
		t.Errorf("Weights = %v", got)
	}
	if got := g.TotalWeight(); got != 2.5 {
		t.Errorf("TotalWeight = %v", got)
	}
}

func TestAddWeightedEdgeRejectsBadWeights(t *testing.T) {
	g := New(3)
	for _, w := range []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := g.AddWeightedEdge(0, 1, w); err == nil {
			t.Errorf("weight %v accepted", w)
		}
	}
}

func TestUnweightedDefaults(t *testing.T) {
	g := Path(3)
	if g.Weighted() {
		t.Error("unit-weight graph reported weighted")
	}
	if !g.IntegerWeighted() {
		t.Error("unit weights not integer")
	}
	if g.TotalWeight() != 2 {
		t.Errorf("TotalWeight = %v, want 2", g.TotalWeight())
	}
}

func TestWeightedMaxCutKnown(t *testing.T) {
	// Triangle with one heavy edge: optimum cuts the heavy edge plus one
	// light edge.
	g := New(3)
	mustAddW(t, g, 0, 1, 10)
	mustAddW(t, g, 1, 2, 1)
	mustAddW(t, g, 0, 2, 1)
	v, assign := g.WeightedMaxCut()
	if v != 11 {
		t.Errorf("weighted MaxCut = %v, want 11", v)
	}
	if got := g.WeightedCutValue(assign); got != v {
		t.Errorf("assignment achieves %v, reported %v", got, v)
	}
}

func TestWeightedMaxCutNegativeWeights(t *testing.T) {
	// A negative edge should stay uncut at the optimum.
	g := New(3)
	mustAddW(t, g, 0, 1, 5)
	mustAddW(t, g, 1, 2, -3)
	v, assign := g.WeightedMaxCut()
	if v != 5 {
		t.Errorf("weighted MaxCut = %v, want 5", v)
	}
	if (assign>>1)&1 != (assign>>2)&1 {
		t.Error("negative edge cut at optimum")
	}
}

func TestWeightedCutTable(t *testing.T) {
	g := New(2)
	mustAddW(t, g, 0, 1, 3.5)
	table := g.WeightedCutTable()
	want := []float64{0, 3.5, 3.5, 0}
	for i := range want {
		if table[i] != want[i] {
			t.Errorf("table = %v, want %v", table, want)
			break
		}
	}
}

func TestWeightedCloneAndString(t *testing.T) {
	g := New(2)
	mustAddW(t, g, 0, 1, 2)
	c := g.Clone()
	if !c.Weighted() || c.TotalWeight() != 2 {
		t.Error("Clone dropped weights")
	}
	if s := g.String(); !strings.Contains(s, "(0,1):2") {
		t.Errorf("String = %q", s)
	}
	if s := Path(2).String(); strings.Contains(s, ":1") {
		t.Errorf("unit-weight String shows weights: %q", s)
	}
}

// Property: complement invariance holds for weighted cuts too.
func TestWeightedCutComplementInvariance(t *testing.T) {
	f := func(seed int64, a uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New(8)
		for u := 0; u < 8; u++ {
			for v := u + 1; v < 8; v++ {
				if rng.Float64() < 0.4 {
					if err := g.AddWeightedEdge(u, v, rng.NormFloat64()+2); err != nil {
						return false
					}
				}
			}
		}
		assign := uint64(a)
		comp := ^assign & 0xFF
		return math.Abs(g.WeightedCutValue(assign)-g.WeightedCutValue(comp)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func mustAddW(t *testing.T, g *Graph, u, v int, w float64) {
	t.Helper()
	if err := g.AddWeightedEdge(u, v, w); err != nil {
		t.Fatal(err)
	}
}

// Bipartite families: MaxCut cuts every edge.
func TestStar(t *testing.T) {
	g := fromEdges(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	if got, _ := g.WeightedMaxCut(); got != 4 {
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
	if got, _ := fromEdges(7, edges).WeightedMaxCut(); got != 12 {
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
	g := fromEdges(12, edges)
	if !g.Connected() {
		t.Error("grid not connected")
	}
	if got, _ := g.WeightedMaxCut(); got != 17 {
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
	g := fromEdges(8, append(edges, [2]int{3, 4}))
	if !g.Connected() {
		t.Error("barbell not connected")
	}
	if got, _ := g.WeightedMaxCut(); got != 9 {
		t.Errorf("barbell MaxCut = %v, want 9", got)
	}
}

func TestGeneratorPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i, f := range []func(){
		func() { Cycle(2) },
		func() { ErdosRenyi(4, 1.5, rng) },
		func() { RandomRegular(5, 3, rng) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

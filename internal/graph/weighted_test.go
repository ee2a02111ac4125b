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
	g := pathGraph(3)
	if g.Weighted() {
		t.Error("unit-weight graph reported weighted")
	}
	if g.TotalWeight() != 2 {
		t.Errorf("TotalWeight = %v, want 2", g.TotalWeight())
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

func TestWeightedString(t *testing.T) {
	g := New(2)
	mustAddW(t, g, 0, 1, 2)
	if s := g.String(); !strings.Contains(s, "(0,1):2") {
		t.Errorf("String = %q", s)
	}
	if s := pathGraph(2).String(); strings.Contains(s, ":1") {
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

func TestGeneratorPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i, f := range []func(){
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

package optimize

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortSimplex must leave vertices in exactly the order the
// sort.SliceStable call it replaced did — the oracle, kept here — on
// simplexes with ties, NaN, ±Inf and both zeros, at every size up to and
// past the 20 elements where both sorts stop being one insertion sort.
func TestSortSimplexMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	values := []float64{-2, -1, -1, 0, math.Copysign(0, -1), 0.5, 1, 1, 3, math.NaN(), math.NaN(), math.Inf(1), math.Inf(-1)}
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(46)
		got := make([]vertex, n)
		for i := range got {
			f := values[rng.Intn(len(values))]
			if rng.Intn(4) == 0 {
				f = rng.NormFloat64()
			}
			got[i] = vertex{x: []float64{float64(i)}, f: f}
		}
		want := append([]vertex(nil), got...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].f < want[j].f })
		sortSimplex(got)
		for i := range want {
			if got[i].x[0] != want[i].x[0] {
				t.Fatalf("trial %d, %d vertices: position %d holds vertex %v (f = %v), sort.SliceStable put vertex %v (f = %v) there",
					trial, n, i, got[i].x[0], got[i].f, want[i].x[0], want[i].f)
			}
		}
	}
}

// sortLast must leave a simplex in exactly sortSimplex's order when only
// its last vertex changed since the previous sort — the state both
// NelderMead and COBYLA call it in — on simplexes of 3–25 vertices with
// ties, NaN, ±Inf and both zeros. Each trial replaces the last vertex
// several times in a row, so sortLast also sorts prefixes it ordered
// itself. Sizes 21–25 are where SortStableFunc merges blocks instead of
// running one insertion sort.
func TestSortLastMatchesSortSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	values := []float64{-2, -1, -1, 0, math.Copysign(0, -1), 0.5, 1, 1, 3, math.NaN(), math.Inf(1), math.Inf(-1)}
	id := 0
	next := func() vertex {
		f := values[rng.Intn(len(values))]
		if rng.Intn(4) == 0 {
			f = rng.NormFloat64()
		}
		id++
		return vertex{x: []float64{float64(id)}, f: f}
	}
	for trial := 0; trial < 4000; trial++ {
		n := 3 + trial%23
		s := make([]vertex, n)
		for i := range s {
			s[i] = next()
		}
		sortSimplex(s)
		for step := 0; step < 8; step++ {
			s[n-1] = next()
			want := append([]vertex(nil), s...)
			sortSimplex(want)
			sortLast(s)
			for i := range want {
				if s[i].x[0] != want[i].x[0] {
					t.Fatalf("trial %d, %d vertices, step %d: position %d holds vertex %v (f = %v), sortSimplex put vertex %v (f = %v) there",
						trial, n, step, i, s[i].x[0], s[i].f, want[i].x[0], want[i].f)
				}
			}
		}
	}
}

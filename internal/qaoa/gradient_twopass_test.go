package qaoa

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"qaoaml/internal/graph"
	"qaoaml/internal/problem"
	"qaoaml/internal/quantum"
)

// The adjoint reverse sweep used to make two passes per stage over both
// states — take ⟨λ|H_γ|φ⟩ (full complex, real half discarded), then
// un-apply the phase separator — and read ΣX's matrix element in
// complex form, qubit by qubit, before un-applying the mixer from each
// state. It now makes one fused un-phase pass reading imaginary parts
// only, and reads ΣX inside a two-state mixer sweep. This file keeps
// the old stage as a test-only reference, built from what the fused
// sweep does not use (the complex public reductions, a separately
// generated h(z), one applyPhaseRange and one Layer per state). The
// value and every ∂E/∂γ are pinned to it bit for bit on every kernel;
// ∂E/∂β, whose summation order the two-state sweep defines anew, to
// rounding — and to itself, bit for bit, across worker counts. On a half
// register the reference takes ΣX on the unfolded
// full states, so the dropped qubit's term is the oracle's own.

// refGen returns the phase generator h(z) over the global range
// [lo, hi) the way the pre-change genInnerChunk bodies produced it.
func refGen(k costKernel, lo, hi int) []float64 {
	gen := make([]float64, hi-lo)
	switch k := k.(type) {
	case *diagKernel:
		for i := range gen {
			gen[i] = k.halfAngles[k.idx[lo+i]]
		}
	case *isingStreamKernel:
		if !k.integer {
			k.fillGen(lo, hi, gen)
			break
		}
		idx := make([]int32, hi-lo)
		k.fillIdx(lo, hi, idx)
		for i, j := range idx {
			gen[i] = k.genFromT(k.tmin + 2*int64(j))
		}
	default:
		panic(fmt.Sprintf("refGen: unknown kernel %T", k))
	}
	return gen
}

// refValueGradTwoPass is the two-pass reverse sweep: the forward pass is
// the workspace's, everything after it quantum.State, LayerRunner and
// ReduceChunks.
func refValueGradTwoPass(w *EvalWorkspace, x, grad []float64) float64 {
	p := len(x) / 2
	gamma, beta, dGamma, dBeta := x[:p], x[p:], grad[:p], grad[p:]
	k, st := w.k, w.st
	dim := st.Dim()
	adj := quantum.NewState(k.qubits())
	runners := [2]*quantum.LayerRunner{quantum.NewLayerRunner(st), quantum.NewLayerRunner(adj)}
	for _, r := range runners {
		r.SetMirror(k.mirror())
	}

	w.runLayers(gamma, beta)
	val, _ := quantum.ReduceChunks(dim, func(lo, hi int) (float64, float64) {
		return k.seedChunkValue(adj, st, lo, hi), 0
	})
	for s := p - 1; s >= 0; s-- {
		if k.mirror() {
			dBeta[s] = 2 * imag(adj.UnfoldMirror().InnerProductSumX(st.UnfoldMirror()))
		} else {
			dBeta[s] = 2 * imag(adj.InnerProductSumX(st))
		}

		for _, r := range runners {
			r.Layer(-2*beta[s], false, nil)
		}

		_, gim := quantum.ReduceChunks(dim, func(lo, hi int) (float64, float64) {
			return adj.InnerProductDiagonalRange(st, lo, refGen(k, lo, hi))
		})
		dGamma[s] = -2 * gim

		k.prepareFactors(w.factors, gamma[s], true)
		quantum.ReduceChunks(dim, func(lo, hi int) (float64, float64) {
			k.applyPhaseRange(st, w.factors, -gamma[s], lo, hi)
			k.applyPhaseRange(adj, w.factors, -gamma[s], lo, hi)
			return 0, 0
		})
	}
	return val
}

func TestValueGradMatchesTwoPassReference(t *testing.T) {
	type kcase struct {
		name string
		k    costKernel
	}
	var cases []kcase
	add := func(name string, pb *Problem, wantKernel costKernel) {
		k := pb.kernel()
		if fmt.Sprintf("%T", k) != fmt.Sprintf("%T", wantKernel) {
			t.Fatalf("%s: kernel is %T, want %T", name, k, wantKernel)
		}
		cases = append(cases, kcase{name, k})
	}
	// Integer coefficients: the largest memoized size and the first
	// streamed one.
	sizes := []int{8, StreamingThreshold - 1, StreamingThreshold}
	if !testing.Short() {
		sizes = append(sizes, 17)
	}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(900 + n)))
		var want costKernel = (*isingStreamKernel)(nil)
		if n < StreamingThreshold {
			want = (*diagKernel)(nil)
		}
		add(fmt.Sprintf("maxcut/n%d", n), mustProblem(t, graph.RandomRegular(n, 3+n%2, rng)), want)
		add(fmt.Sprintf("ising/n%d", n), mustIsing(t, problem.RandomIsing(n, rng)), want)
	}
	// Float coefficients: the stream kernel's doubled phases, built
	// directly (a memoizing selection would skip them).
	rng := rand.New(rand.NewSource(914))
	cases = append(cases, kcase{"maxcut-float/n14", newIsingStreamKernel(mustProblem(t, randomWeightedGraph(rng, 14)).Inst, true)})
	fin := problem.RandomIsing(14, rng)
	fin.Linear[3] = 0.37
	cases = append(cases, kcase{"ising-float/n14", newIsingStreamKernel(mustIsing(t, fin).Inst, false)})

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, c := range cases {
		for _, p := range []int{1, 3} {
			x := testParams(p).Vector()
			want := make([]float64, len(x))
			refVal := refValueGradTwoPass(newWorkspace(c.k, nil), x, want)
			var first []float64
			check := func(label string, ws *EvalWorkspace) {
				got := make([]float64, len(x))
				val := ws.ValueGrad(x, got)
				if ev := ws.ExpectationVec(x); val != ev {
					t.Errorf("%s: ValueGrad value %v != ExpectationVec %v", label, val, ev)
				}
				if val != refVal {
					t.Errorf("%s: value %v != two-pass reference %v", label, val, refVal)
				}
				for i := range want {
					if i < p && got[i] != want[i] {
						t.Errorf("%s: ∂E/∂γ[%d] = %v, two-pass reference %v", label, i, got[i], want[i])
					}
					if d := math.Abs(got[i] - want[i]); d > 1e-12*(1+math.Abs(want[i])) {
						t.Errorf("%s: grad[%d] = %v, two-pass reference %v (|Δ| = %g)", label, i, got[i], want[i], d)
					}
					if first != nil && got[i] != first[i] {
						t.Errorf("%s: grad[%d] = %v differs from the first run's %v", label, i, got[i], first[i])
					}
				}
				if first == nil {
					first = got
				}
			}
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				check(fmt.Sprintf("%s p=%d GOMAXPROCS=%d", c.name, p, procs), newWorkspace(c.k, nil))
			}
		}
	}
}

package qaoa

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qaoaml/internal/graph"
	"qaoaml/internal/optimize"
	"qaoaml/internal/problem"
)

// State reuse: ValueGrad(x) directly after an evaluation at x on the
// same workspace skips the forward pass, with results bit-identical to
// a cold ValueGrad(x); every other sequence recomputes. forwardPasses
// counts runLayers calls, so each case pins both the numbers and
// whether a pass was run.

// ForwardPasses returns how many times the evaluator has simulated the
// circuit. At depth ≥ 2 NegExpectation always does, and a gradient does
// only when the workspace's last evaluation was not at its x, so an
// L-BFGS-B or SLSQP run reads NFev here, not NFev + NGev. A depth-1
// optimizer run reads 0: the closed form answers every call, and only
// BestSampled simulates.
func (e *Evaluator) ForwardPasses() int {
	if e.ws == nil {
		return 0
	}
	return e.ws.forwardPasses
}

// reuseCase builds workspaces of one kernel, all drawing from the arena
// handed in (nil: plain ownership).
type reuseCase struct {
	name string
	k    costKernel
	new  func(a *Arena) *EvalWorkspace
}

func reuseCases(t *testing.T) []reuseCase {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	one := func(k costKernel) func(*Arena) *EvalWorkspace {
		return func(a *Arena) *EvalWorkspace { return newWorkspace(k, a) }
	}
	diag := mustProblem(t, graph.RandomRegular(8, 3, rng)).kernel()
	mc := newIsingStreamKernel(mustProblem(t, graph.RandomRegular(14, 3, rng)).Inst, true)
	is := newIsingStreamKernel(mustIsing(t, problem.RandomIsing(14, rng)).Inst, false)
	// A 14-qubit half register: two chunks, the smallest multi-chunk MaxCut.
	mmc := mustProblem(t, graph.ErdosRenyiConnected(15, 0.3, rng)).kernel()
	if _, ok := diag.(*diagKernel); !ok {
		t.Fatalf("n=8 kernel is %T, want *diagKernel", diag)
	}
	if !mc.mirror() || is.mirror() {
		t.Fatalf("want a half-register MaxCut stream (mirror %v) and a full-register Ising one (mirror %v)", mc.mirror(), is.mirror())
	}
	return []reuseCase{
		{"materialized", diag, one(diag)},
		{"maxcut-stream", mc, one(mc)},
		{"ising-stream", is, one(is)},
		{"maxcut-multichunk", mmc, one(mmc)},
	}
}

func TestStateReuse(t *testing.T) {
	const p = 3
	x := testParams(p).Vector()
	y := append([]float64(nil), x...)
	y[p] += 0.25
	for _, c := range reuseCases(t) {
		t.Run(c.name, func(t *testing.T) {
			cold := c.new(nil)
			defer cold.Close()
			want := make([]float64, 2*p)
			wantVal := cold.ValueGrad(x, want)

			// gradAt runs ValueGrad(x) on ws, pins it to the cold result
			// and returns how many forward passes it made.
			got := make([]float64, 2*p)
			gradAt := func(label string, ws *EvalWorkspace) int {
				t.Helper()
				before := ws.forwardPasses
				if val := ws.ValueGrad(x, got); val != wantVal {
					t.Errorf("%s: value %v != cold %v", label, val, wantVal)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s: grad[%d] = %v != cold %v", label, i, got[i], want[i])
					}
				}
				return ws.forwardPasses - before
			}

			ws := c.new(nil)
			defer ws.Close()
			ws.ExpectationVec(x)
			if n := gradAt("Expectation(x)→ValueGrad(x)", ws); n != 0 {
				t.Errorf("Expectation(x)→ValueGrad(x) ran %d forward passes, want 0", n)
			}
			if n := gradAt("ValueGrad(x)→ValueGrad(x)", ws); n != 1 {
				t.Errorf("ValueGrad(x)→ValueGrad(x) ran %d forward passes, want 1", n)
			}
			before := ws.forwardPasses
			if e := ws.ExpectationVec(x); e != wantVal || ws.forwardPasses != before+1 {
				t.Errorf("ValueGrad(x)→Expectation(x) = %v after %d passes, want %v after 1", e, ws.forwardPasses-before, wantVal)
			}
			before = ws.forwardPasses
			if e := ws.ExpectationVec(x); e != wantVal || ws.forwardPasses != before+1 {
				t.Errorf("Expectation(x)→Expectation(x) = %v after %d passes, want %v after 1", e, ws.forwardPasses-before, wantVal)
			}
			ws.ExpectationVec(y)
			if n := gradAt("Expectation(x)→Expectation(y)→ValueGrad(x)", ws); n != 1 {
				t.Errorf("Expectation(y)→ValueGrad(x) ran %d forward passes, want 1", n)
			}

			// Depth change: the state held is depth 2, built from x's own
			// leading angles.
			ws.ExpectationVec([]float64{x[0], x[1], x[p], x[p+1]})
			if n := gradAt("depth 2→ValueGrad(depth 3)", ws); n != 1 {
				t.Errorf("depth change ran %d forward passes, want 1", n)
			}

			// A NaN component never matches itself.
			bad := append([]float64(nil), x...)
			bad[1] = math.NaN()
			ws.ExpectationVec(bad)
			before = ws.forwardPasses
			ws.ValueGrad(bad, got)
			if ws.forwardPasses != before+1 {
				t.Errorf("Expectation(NaN)→ValueGrad(NaN) ran %d forward passes, want 1", ws.forwardPasses-before)
			}

			// An arena-recycled buffer still holds |ψ(x)⟩, but the new
			// workspace never prepared it.
			a := NewArena(0)
			defer a.Close()
			first := c.new(a)
			first.ExpectationVec(x)
			first.Release()
			second := c.new(a)
			defer second.Release()
			if a.Stats().Hits == 0 {
				t.Fatal("arena did not recycle the state buffer")
			}
			if n := gradAt("arena-recycled buffer", second); n != 1 {
				t.Errorf("arena-recycled buffer ran %d forward passes, want 1", n)
			}
		})
	}
}

// The optimizers ask for every gradient at the point their line search
// just evaluated, so a whole run makes one forward pass per function
// evaluation and none per gradient (NFev + NGev without the reuse).
func TestStateReuseOptimizerRuns(t *testing.T) {
	pb := mustProblem(t, graph.RandomRegular(8, 3, rand.New(rand.NewSource(5))))
	const p = 3
	lo, hi := make([]float64, 2*p), make([]float64, 2*p)
	for i := 0; i < p; i++ {
		hi[i], hi[p+i] = GammaMax, BetaMax
	}
	bounds := optimize.NewBounds(lo, hi)
	x0 := testParams(p).Vector()
	for _, opt := range []optimize.Optimizer{&optimize.LBFGSB{}, &optimize.SLSQP{}} {
		ev := NewEvaluator(pb, p)
		var calls, grads int
		r := optimize.Run(context.Background(), optimize.Problem{
			F:    func(x []float64) float64 { calls++; return ev.NegExpectation(x) },
			Grad: func(x, g []float64) { grads++; ev.NegGrad(x, g) },
			X0:   x0, Bounds: bounds,
		}, optimize.Options{Optimizer: opt})
		if r.NGev < 2 || r.NFev != calls || r.NGev != grads {
			t.Fatalf("%s: NFev %d (F called %d times), NGev %d (Grad called %d times)", opt.Name(), r.NFev, calls, r.NGev, grads)
		}
		if got := ev.ForwardPasses(); got != r.NFev {
			t.Errorf("%s: %d forward passes for NFev = %d, NGev = %d; want one per function evaluation", opt.Name(), got, r.NFev, r.NGev)
		}
	}
}

// The reuse path is the optimizer's steady state: evaluate, then ask
// for the gradient there. It must allocate nothing once warm.
func TestStateReuseZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, c := range reuseCases(t) {
		ws := c.new(nil)
		x := testParams(2).Vector()
		grad := make([]float64, len(x))
		ws.ExpectationVec(x)
		ws.ValueGrad(x, grad) // warm-up: adjoint buffer, held-angle record
		before := ws.forwardPasses
		if allocs := testing.AllocsPerRun(20, func() {
			ws.ExpectationVec(x)
			ws.ValueGrad(x, grad)
		}); allocs != 0 {
			t.Errorf("%s: Expectation(x)→ValueGrad(x) allocates %v times per run", c.name, allocs)
		}
		if got := ws.forwardPasses - before; got != 21 {
			t.Errorf("%s: %d forward passes over 21 evaluate-then-differentiate rounds; the reuse path was not taken", c.name, got)
		}
		ws.Close()
	}
}

// TestStateReuseInterleaved is the randomized guard of the held-state
// record: whatever order evaluations, gradients, readouts, depth
// changes, releases and arena recycles come in, every result must be ==
// a cold workspace's, so a writer of the state buffer that forgets to
// clear the record fails here. The workspaces share one Arena and
// alternate between field-free problems of width n — half registers of
// n−1 qubits — and problems with fields of width n−1, so half- and
// full-register evolutions keep trading the very same buffers.
func TestStateReuseInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	type kind struct {
		name string
		pb   *Problem
	}
	var kinds []kind
	// 8-qubit registers: materialized kernels. 14-qubit registers: the
	// field-free n = 15 problems stream, the fielded n = 14 one memoizes.
	for _, n := range []int{9, 15} {
		free := []*Problem{
			mustProblem(t, graph.ErdosRenyiConnected(n, 0.4, rng)),
			mustNew(t, problem.Partition(problem.RandomPartition(n, rng))),
		}
		fielded := mustIsing(t, problem.RandomIsing(n-1, rng))
		if fielded.halfRegister() {
			t.Fatalf("n=%d: RandomIsing drew no field; reseed", n-1)
		}
		for _, pb := range append(free, fielded) {
			if got := pb.kernel().qubits(); got != n-1 {
				t.Fatalf("problem evolves %d qubits, want %d", got, n-1)
			}
			kinds = append(kinds, kind{fmt.Sprintf("%s/n%d", pb.Spec.Family, pb.Inst.N), pb})
		}
	}
	// A few points per depth, so repeats — the reuse path — are common.
	points := map[int][][]float64{}
	for p := 1; p <= 3; p++ {
		for i := 0; i < 3; i++ {
			points[p] = append(points[p], randomParams(rng, p).Vector())
		}
	}

	type slot struct {
		k  kind
		ws *EvalWorkspace
	}
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(4100 + seed))
		a := NewArena(0)
		slots := make([]*slot, 3)
		reused, mixed := 0, map[bool]int{}
		for step := 0; step < 300; step++ {
			si := rng.Intn(len(slots))
			s := slots[si]
			if s == nil {
				// Arena recycle: any kind may draw the buffers any other left.
				k := kinds[rng.Intn(len(kinds))]
				slots[si] = &slot{k, newWorkspace(k.pb.kernel(), a)}
				mixed[k.pb.halfRegister()]++
				continue
			}
			p := 1 + rng.Intn(3) // depth changes whenever it differs from the last
			x := points[p][rng.Intn(len(points[p]))]
			label := fmt.Sprintf("seed %d step %d %s p=%d", seed, step, s.k.name, p)
			cold := s.k.pb.NewWorkspace()
			switch op := rng.Intn(8); {
			case op < 3:
				if got, want := s.ws.ExpectationVec(x), cold.ExpectationVec(x); got != want {
					t.Fatalf("%s: ExpectationVec %v != cold %v", label, got, want)
				}
			case op < 6:
				before := s.ws.forwardPasses
				got, want := make([]float64, len(x)), make([]float64, len(x))
				gv, wv := s.ws.ValueGrad(x, got), cold.ValueGrad(x, want)
				if gv != wv {
					t.Fatalf("%s: ValueGrad value %v != cold %v", label, gv, wv)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: grad[%d] = %v != cold %v", label, i, got[i], want[i])
					}
				}
				if s.ws.forwardPasses == before {
					reused++
				}
			case op < 7:
				pr := FromVector(x)
				gs, ga := (&Evaluator{Problem: s.k.pb, Depth: p, ws: s.ws}).BestSampled(pr)
				ws, wa := (&Evaluator{Problem: s.k.pb, Depth: p, ws: cold}).BestSampled(pr)
				if gs != ws || ga != wa {
					t.Fatalf("%s: BestSampled (%v, %b) != cold (%v, %b)", label, gs, ga, ws, wa)
				}
			default:
				s.ws.Release()
				slots[si] = nil
			}
		}
		for _, s := range slots {
			if s != nil {
				s.ws.Release()
			}
		}
		if st := a.Stats(); st.Hits == 0 || reused == 0 || mixed[true] == 0 || mixed[false] == 0 {
			t.Errorf("seed %d: %d arena hits of %d gets, %d reused states, %d half- and %d full-register workspaces; the sequence exercised nothing",
				seed, st.Hits, st.Gets, reused, mixed[true], mixed[false])
		}
		a.Close()
	}
}

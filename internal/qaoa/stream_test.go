package qaoa

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"qaoaml/internal/graph"
)

// materializedKernel builds the small-n diagKernel for any graph,
// regardless of the streaming threshold — the reference the streaming
// path is compared against. Like it, a half register's.
func materializedKernel(g *graph.Graph) *diagKernel {
	return newCutKernel(g.N, g.WeightedCutTable(), g.TotalWeight())
}

func testParams(p int) Params {
	pr := NewParams(p)
	for s := 0; s < p; s++ {
		pr.Gamma[s] = 0.37 + 0.21*float64(s)
		pr.Beta[s] = 0.19 + 0.11*float64(s)
	}
	return pr
}

// Integer-weighted graphs must match the materialized path EXACTLY:
// the streaming walker accumulates cuts in int64 (no rounding), the
// phase factors use the same distinct-value arithmetic, and the chunk
// reductions share their geometry. n=14 exercises the multi-chunk
// serial path.
func TestStreamKernelMatchesMaterializedExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	graphs := map[string]*graph.Graph{
		"unweighted-3reg-n14": graph.RandomRegular(14, 3, rng),
		"erdos-renyi-n13":     graph.ErdosRenyiConnected(13, 0.3, rng),
	}
	// Integer-weighted (non-unit) variant.
	gw := graph.RandomRegular(14, 3, rng)
	wg := graph.New(14)
	for i, e := range gw.Edges() {
		if err := wg.AddWeightedEdge(e.U, e.V, float64(1+i%5)); err != nil {
			t.Fatal(err)
		}
	}
	graphs["int-weighted-n14"] = wg

	for name, g := range graphs {
		g := g
		t.Run(name, func(t *testing.T) {
			pb := mustProblem(t, g)
			if pb.CutTable != nil {
				t.Fatalf("n=%d problem materialized its cut table; want streaming mode", g.N)
			}
			sk, ok := pb.kernel().(*streamKernel)
			if !ok {
				t.Fatalf("kernel is %T, want *streamKernel", pb.kernel())
			}
			if !sk.integer {
				t.Fatalf("integer-weighted graph did not take the exact integer path")
			}
			ref := newWorkspace(materializedKernel(g), nil)
			got := pb.NewWorkspace()
			for _, p := range []int{1, 3} {
				pr := testParams(p)
				x := pr.Vector()
				if rv, gv := ref.ExpectationVec(x), got.ExpectationVec(x); rv != gv {
					t.Errorf("p=%d: streaming expectation %v != materialized %v", p, gv, rv)
				}
				rGrad := make([]float64, len(x))
				gGrad := make([]float64, len(x))
				rv := ref.ValueGrad(x, rGrad)
				gv := got.ValueGrad(x, gGrad)
				if rv != gv {
					t.Errorf("p=%d: streaming gradient value %v != materialized %v", p, gv, rv)
				}
				for i := range rGrad {
					if rGrad[i] != gGrad[i] {
						t.Errorf("p=%d: grad[%d] streaming %v != materialized %v", p, i, gGrad[i], rGrad[i])
					}
				}
			}
		})
	}
}

// Float-weighted graphs stream per-amplitude Sincos phases instead of
// the distinct-value table, so agreement is to rounding error, not
// bit-exact.
func TestStreamKernelMatchesMaterializedFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	base := graph.ErdosRenyiConnected(13, 0.3, rng)
	g := graph.New(13)
	for i, e := range base.Edges() {
		if err := g.AddWeightedEdge(e.U, e.V, 0.5+0.37*float64(i%7)+0.01*math.Pi); err != nil {
			t.Fatal(err)
		}
	}
	pb := mustProblem(t, g)
	sk, ok := pb.kernel().(*streamKernel)
	if !ok {
		t.Fatalf("kernel is %T, want *streamKernel", pb.kernel())
	}
	if sk.integer {
		t.Fatal("π-scaled weights must take the float streaming path")
	}
	ref := newWorkspace(materializedKernel(g), nil)
	got := pb.NewWorkspace()
	pr := testParams(2)
	x := pr.Vector()
	scale := math.Max(1, pb.TotalWeight)
	if rv, gv := ref.ExpectationVec(x), got.ExpectationVec(x); math.Abs(rv-gv) > 1e-12*scale {
		t.Errorf("streaming expectation %v != materialized %v", gv, rv)
	}
	rGrad := make([]float64, len(x))
	gGrad := make([]float64, len(x))
	rv := ref.ValueGrad(x, rGrad)
	gv := got.ValueGrad(x, gGrad)
	if math.Abs(rv-gv) > 1e-12*scale {
		t.Errorf("streaming gradient value %v != materialized %v", gv, rv)
	}
	for i := range rGrad {
		if math.Abs(rGrad[i]-gGrad[i]) > 1e-11*scale {
			t.Errorf("grad[%d] streaming %v != materialized %v", i, gGrad[i], rGrad[i])
		}
	}
}

// A hand-built streaming Problem below the threshold (CutTable nil at
// n=8) must agree exactly with the standard materialized problem —
// single-chunk streaming coverage.
func TestStreamKernelSmallRegister(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	g := graph.ErdosRenyiConnected(8, 0.4, rng)
	ref := mustProblem(t, g)
	opt, _ := g.WeightedMaxCut()
	stream := &Problem{Graph: g, OptValue: opt, TotalWeight: g.TotalWeight()}
	if _, ok := stream.kernel().(*streamKernel); !ok {
		t.Fatalf("nil-CutTable problem built %T, want *streamKernel", stream.kernel())
	}
	pr := testParams(3)
	if rv, gv := ref.Expectation(pr), stream.Expectation(pr); rv != gv {
		t.Errorf("streaming n=8 expectation %v != materialized %v", gv, rv)
	}
}

// The point of streaming mode: an n = 20 problem must hold no
// state-sized cost or index table. The only such allocation an
// evaluation needs is the workspace state vector — a MaxCut's half
// register, 2^19 amplitudes, 8 MiB; the materialized kernel would add
// 6 MiB of tables on top.
func TestStreamingMemoryBudgetN20(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping 2^20 memory-budget test in short mode")
	}
	rng := rand.New(rand.NewSource(37))
	g := graph.RandomRegular(20, 3, rng)
	pb := mustProblem(t, g)
	if pb.CutTable != nil {
		t.Fatal("n=20 problem materialized its cut table")
	}
	if _, ok := pb.kernel().(*streamKernel); !ok {
		t.Fatalf("n=20 kernel is %T, want *streamKernel", pb.kernel())
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ws := pb.NewWorkspace()
	e := ws.Expectation(testParams(1))
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ws)

	delta := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	const stateBytes = 8 << 20 // 2^19 complex128
	if delta > stateBytes+stateBytes/4 {
		t.Errorf("n=20 evaluation retains %d bytes; budget is the half-register state vector (%d) plus slack — a table leaked, or the full register was drawn", delta, stateBytes)
	}
	if e <= 0 || e >= pb.TotalWeight {
		t.Errorf("n=20 streamed expectation %v outside (0, total weight %v)", e, pb.TotalWeight)
	}
}

// CutValue must work in both modes and agree with the graph.
func TestCutValueStreamingMode(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	g := graph.RandomRegular(14, 3, rng)
	pb := mustProblem(t, g)
	for _, z := range []uint64{0, 1, 4097, 1<<14 - 1} {
		if got, want := pb.CutValue(z), g.WeightedCutValue(z); got != want {
			t.Errorf("CutValue(%d) = %v, want %v", z, got, want)
		}
	}
	// BestSampledCut goes through ArgmaxProbability + CutValue now.
	cut, assign := pb.BestSampledCut(testParams(1))
	if want := g.WeightedCutValue(assign); cut != want {
		t.Errorf("BestSampledCut cut %v != WeightedCutValue(%d) = %v", cut, assign, want)
	}
}

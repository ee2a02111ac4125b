package qaoa

import (
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"

	"qaoaml/internal/graph"
	"qaoaml/internal/problem"
)

func testParams(p int) Params {
	pr := NewParams(p)
	for s := 0; s < p; s++ {
		pr.Gamma[s] = 0.37 + 0.21*float64(s)
		pr.Beta[s] = 0.19 + 0.11*float64(s)
	}
	return pr
}

// Integer-weighted graphs must match the materialized path EXACTLY, at
// every worker count: the streaming walker accumulates T in int64 (no
// rounding), the phase factors use the same distinct-value arithmetic,
// and the chunk reductions share their geometry. The integer path
// reaches Σ|w| < 2¹⁶: T keeps the parity of Σ|w|, so the factor table
// holds Σ|w|+1 entries, not 2·Σ|w|+1.
func TestStreamKernelMatchesMaterializedExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	graphs := map[string]*graph.Graph{
		"unweighted-3reg-n14": graph.RandomRegular(14, 3, rng),
		"erdos-renyi-n13":     graph.ErdosRenyiConnected(13, 0.3, rng),
	}
	// Integer-weighted variants: small weights, and Σ|w| = 40000.
	reweigh := func(w func(i, m int) float64) *graph.Graph {
		edges := graph.RandomRegular(14, 3, rng).Edges()
		g := graph.New(14)
		for i, e := range edges {
			if err := g.AddWeightedEdge(e.U, e.V, w(i, len(edges))); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	graphs["int-weighted-n14"] = reweigh(func(i, _ int) float64 { return float64(1 + i%5) })
	graphs["int-weighted-sum40000-n14"] = reweigh(func(i, m int) float64 {
		if i == m-1 {
			return float64(40000 - 1800*(m-1) - 5*(m-1)*(m-2))
		}
		return float64(1800 + 10*i)
	})

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for name, g := range graphs {
		g := g
		t.Run(name, func(t *testing.T) {
			pb := mustProblem(t, g)
			sk, ok := pb.kernel().(*isingStreamKernel)
			if !ok {
				t.Fatalf("kernel is %T, want *isingStreamKernel", pb.kernel())
			}
			if !sk.integer {
				t.Fatalf("integer-weighted graph did not take the exact integer path")
			}
			if want := int(g.TotalWeight()) + 1; len(sk.genTab) != want {
				t.Errorf("factor table holds %d entries, want Σ|w|+1 = %d", len(sk.genTab), want)
			}
			mat := newMaterializedKernel(pb.Inst, true)
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				ref, got := newWorkspace(mat, nil), pb.NewWorkspace()
				for _, p := range []int{1, 3} {
					x := testParams(p).Vector()
					if rv, gv := ref.ExpectationVec(x), got.ExpectationVec(x); rv != gv {
						t.Errorf("p=%d GOMAXPROCS=%d: streaming expectation %v != materialized %v", p, procs, gv, rv)
					}
					rGrad := make([]float64, len(x))
					gGrad := make([]float64, len(x))
					rv := ref.ValueGrad(x, rGrad)
					gv := got.ValueGrad(x, gGrad)
					if rv != gv {
						t.Errorf("p=%d GOMAXPROCS=%d: streaming gradient value %v != materialized %v", p, procs, gv, rv)
					}
					for i := range rGrad {
						if rGrad[i] != gGrad[i] {
							t.Errorf("p=%d GOMAXPROCS=%d: grad[%d] streaming %v != materialized %v", p, procs, i, gGrad[i], rGrad[i])
						}
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
	sk, ok := pb.kernel().(*isingStreamKernel)
	if !ok {
		t.Fatalf("kernel is %T, want *isingStreamKernel", pb.kernel())
	}
	if sk.integer {
		t.Fatal("π-scaled weights must take the float streaming path")
	}
	ref := newWorkspace(newMaterializedKernel(pb.Inst, true), nil)
	got := pb.NewWorkspace()
	pr := testParams(2)
	x := pr.Vector()
	scale := math.Max(1, g.TotalWeight())
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

// A streaming kernel built below the threshold (n = 8: the half
// register is one short chunk) must agree exactly with the materialized
// kernel the problem selects — single-chunk streaming coverage.
func TestStreamKernelSmallRegister(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	pb := mustProblem(t, graph.ErdosRenyiConnected(8, 0.4, rng))
	if _, ok := pb.kernel().(*diagKernel); !ok {
		t.Fatalf("n=8 kernel is %T, want *diagKernel", pb.kernel())
	}
	stream := newWorkspace(newIsingStreamKernel(pb.Inst, true), nil)
	pr := testParams(3)
	if rv, gv := pb.Expectation(pr), stream.Expectation(pr); rv != gv {
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
	if _, ok := pb.kernel().(*isingStreamKernel); !ok {
		t.Fatalf("n=20 kernel is %T, want *isingStreamKernel", pb.kernel())
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
	if e <= 0 || e >= g.TotalWeight() {
		t.Errorf("n=20 streamed expectation %v outside (0, total weight %v)", e, g.TotalWeight())
	}
}

// The integer fills walk a chunk in blocks (lin(blk) from blk's set bits
// plus a per-chunk table of the low bits' lin) where they used to carry
// the trailing-zeros recurrence from one amplitude to the next. int64
// sums regroup exactly, so every index and score of every chunk must be
// the recurrence's: every family at n = 13…16, over all basis states
// and — where the instance has no field — over the half register's.
// (RandomSpec's MaxCut and QUBO draws take the integer fills; the other
// families' coefficients send them to the float ones, which still carry
// the recurrence.)
func TestIsingStreamBlockedFillMatchesRecurrence(t *testing.T) {
	for _, fam := range problem.Families() {
		for n := 13; n <= 16; n++ {
			spec, err := problem.RandomSpec(fam, n, rand.New(rand.NewSource(int64(40+n))))
			if err != nil {
				t.Fatalf("%s n=%d: %v", fam, n, err)
			}
			in := mustNew(t, spec).Inst
			for _, half := range []bool{false, true} {
				if half && !in.FieldFree() {
					continue
				}
				k := newIsingStreamKernel(in, half)
				if !k.integer {
					if fam == problem.FamilyMaxCut || fam == problem.FamilyQUBO {
						t.Fatalf("%s n=%d: not an integer kernel, the blocked fills go untested", fam, n)
					}
					continue
				}
				clen := 1 << uint(k.cb)
				idx, score := make([]int32, clen), make([]float64, clen)
				for lo := 0; lo < 1<<uint(k.n); lo += clen {
					k.fillIdx(lo, lo+clen, idx)
					k.fillScore(lo, lo+clen, score)

					var d, p [maxStreamChunkBits]int64
					base := k.chunkSetupInt(uint64(lo), &d, &p)
					var lin int64
					for i := 0; i < clen; i++ {
						if i > 0 {
							tz := bits.TrailingZeros64(uint64(i))
							lin += d[tz] - p[tz]
						}
						tt := base + k.tllInt[i] + lin
						if want := int32((tt - k.tmin) >> 1); idx[i] != want {
							t.Fatalf("%s n=%d half=%v chunk %d: idx[%d] = %d, recurrence %d", fam, in.N, half, lo/clen, i, idx[i], want)
						}
						if want := k.scoreFromT(tt); score[i] != want {
							t.Fatalf("%s n=%d half=%v chunk %d: score[%d] = %v, recurrence %v", fam, in.N, half, lo/clen, i, score[i], want)
						}
					}
				}
			}
		}
	}
}

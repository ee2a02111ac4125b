package qaoa

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
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
			sk := newIsingStreamKernel(pb.Inst, true)
			if !sk.integer {
				t.Fatalf("integer-weighted graph did not take the exact integer path")
			}
			if want := int(g.TotalWeight()) + 1; len(sk.genTab) != want {
				t.Errorf("factor table holds %d entries, want Σ|w|+1 = %d", len(sk.genTab), want)
			}
			mat := newMaterializedKernel(pb.Inst, true)
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				ref, got := newWorkspace(mat, nil), newWorkspace(sk, nil)
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

// Float-weighted graphs build each chunk's phases by doubling instead of
// reading the distinct-value table, so agreement is to rounding error,
// not bit-exact.
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
	sk := floatStreamKernel(t, pb, "π-scaled weights")
	ref := newWorkspace(newMaterializedKernel(pb.Inst, true), nil)
	got := newWorkspace(sk, nil)
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

// phaseCases draws the float-path population at n qubits: the three
// families whose coefficients send them there (from n = 4, RandomSpec's
// minimum), a float-weighted MaxCut, and hand-built Hamiltonians aimed
// at fillPhase's branches — a dense one with every coupling and field
// (pairs below, across and above the chunk width), (i, j) pairs listed
// two and three times over, one of them cancelling to zero, fields with
// no coupling at all, and a lone field on the top chunk bit beside a
// chain.
func phaseCases(t *testing.T, n int, rng *rand.Rand) map[string]*problem.Instance {
	t.Helper()
	cases := map[string]*problem.Instance{}
	if n >= 4 {
		for _, fam := range []string{problem.FamilyMaxKSAT, problem.FamilyPartition, problem.FamilyPortfolio} {
			spec, err := problem.RandomSpec(fam, n, rng)
			if err != nil {
				t.Fatalf("%s n=%d: %v", fam, n, err)
			}
			cases[fam] = mustNew(t, spec).Inst
		}
	}
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if j == i+1 || rng.Intn(3) == 0 {
				if err := g.AddWeightedEdge(i, j, 0.25+1.5*rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	cases["maxcut-float"] = mustProblem(t, g).Inst

	build := func(name string, linear []float64, quad []problem.Term) {
		cases[name] = &problem.Instance{Family: problem.FamilyQUBO, Sense: problem.Sense(1 - 2*rng.Intn(2)), N: n, Vars: n, Linear: linear, Quad: quad, Offset: 0.75}
	}
	w := func() float64 { return 2*rng.Float64() - 1 }
	fields := func() []float64 {
		h := make([]float64, n)
		for i := range h {
			h[i] = w()
		}
		return h
	}
	var dense, chain []problem.Term
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dense = append(dense, problem.Term{I: i, J: j, W: w()})
			if j == i+1 {
				chain = append(chain, problem.Term{I: i, J: j, W: w()})
			}
		}
	}
	build("dense", fields(), dense)
	cancel := w()
	repeat := append(append([]problem.Term(nil), chain...),
		problem.Term{I: 0, J: 1, W: w()}, problem.Term{I: 0, J: n - 1, W: w()}, problem.Term{I: 0, J: 1, W: w()},
		problem.Term{I: 0, J: n - 1, W: cancel}, problem.Term{I: 0, J: n - 1, W: -cancel})
	build("repeat", nil, repeat)
	build("no-couplings", fields(), nil)
	top := make([]float64, n)
	top[min(n, 13)-1] = w()
	build("top-field", top, chain)
	return cases
}

// The float path's phase factors are built by doubling (fillPhase): one
// Sincos per chunk and per chunk bit, every other factor a product of up
// to cb(cb+1)/2 unit complex numbers. The oracle is Sincos(s·gen(z)) per
// amplitude with gen(z) = −sense·T(z)/2 summed term by term from the
// instance — no table, no recurrence — for every chunk of the register,
// full and (without a field) half. Both sides round angles of up to
// |s|·(Σ|2J| + Σ|2h|)/2 radians and the chain adds a few ε per multiply:
//
//	|g[z] − e^{i·s·gen(z)}| ≤ c·ε·(cb² + |s|·(Σ|2J| + Σ|2h|)),  c = 4.
//
// Worst ratio observed over this population: 0.41 of that bound. The
// arithmetic fillPhase replaced, Sincos(s·fillGen(z)), reaches 46 times
// the bound (s = 1e3, n ≥ 14: its cross-term sum is a serial chain of
// 2^cb adds); both ratios are logged.
func TestFloatPhaseDoublingMatchesSincos(t *testing.T) {
	const c, eps = 4.0, 0x1p-52
	rng := rand.New(rand.NewSource(2100))
	gamma := 0.37 + rng.Float64()
	worst, worstAt, worstOld := 0.0, "", 0.0
	for n := 2; n <= 16; n++ {
		for name, in := range phaseCases(t, n, rng) {
			span := 0.0
			for _, q := range in.Quad {
				span += math.Abs(2 * q.W)
			}
			for _, h := range in.Linear {
				span += math.Abs(2 * h)
			}
			for _, half := range []bool{false, true} {
				if half && !in.FieldFree() {
					continue
				}
				k := newIsingStreamKernel(in, half)
				if k.integer {
					// A small partition fits the int64 path's factor table.
					if n >= StreamingThreshold || name != problem.FamilyPartition {
						t.Fatalf("%s n=%d: an integer kernel, the float path goes untested", name, n)
					}
					continue
				}
				clen := 1 << uint(k.cb)
				gen, old, w := make([]float64, clen), make([]float64, clen), make([]complex128, k.factorLen())
				g, f := new(streamScratch).phaseBuf(clen)
				for lo := 0; lo < 1<<uint(k.n); lo += clen {
					for z := range gen {
						gen[z] = -in.Sense.Sign() * doubledT(in, uint64(lo+z)) / 2
					}
					k.fillGen(lo, lo+clen, old)
					for _, s := range []float64{0, gamma, -gamma, 2 * math.Pi, 1e3} {
						tol := c * eps * (float64(k.cb*k.cb) + math.Abs(s)*span)
						k.prepareFactors(w, math.Abs(s), s < 0)
						k.fillPhase(lo, s, w, g, f)
						for z, h := range gen {
							want := expi(s * h)
							d := cmplx.Abs(g[z] - want)
							if !(d <= tol) {
								t.Fatalf("%s n=%d half=%v s=%v chunk %d: g[%d] = %v, Sincos %v (|Δ| = %g > %g)",
									name, n, half, s, lo/clen, z, g[z], want, d, tol)
							}
							if d/tol > worst {
								worst, worstAt = d/tol, fmt.Sprintf("%s n=%d half=%v s=%v", name, n, half, s)
							}
							worstOld = math.Max(worstOld, cmplx.Abs(expi(s*old[z])-want)/tol)
						}
					}
				}
			}
		}
	}
	t.Logf("worst |Δ|/bound = %.3g (%s); per-amplitude Sincos of fillGen: %.3g", worst, worstAt, worstOld)
}

// doubledT is T(z) = Σ 2J·s_i·s_j + Σ 2h·s_i, term by term.
func doubledT(in *problem.Instance, z uint64) (t float64) {
	for _, q := range in.Quad {
		if (z>>uint(q.I))&1 == (z>>uint(q.J))&1 {
			t += 2 * q.W
		} else {
			t -= 2 * q.W
		}
	}
	for i, h := range in.Linear {
		if (z>>uint(i))&1 == 0 {
			t += 2 * h
		} else {
			t -= 2 * h
		}
	}
	return t
}

// floatStreamKernel builds the problem's stream kernel, stopping the test
// unless it takes the float path.
func floatStreamKernel(t testing.TB, pb *Problem, name string) *isingStreamKernel {
	t.Helper()
	k := newIsingStreamKernel(pb.Inst, pb.halfRegister())
	if k.integer {
		t.Fatalf("%s n=%d: the stream kernel takes its integer path, not the float one", name, pb.Inst.N)
	}
	return k
}

// Warm float-path evaluations allocate nothing: the chunk's phase tables
// are recycled with the rest of the stream scratch.
func TestFloatPhaseWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, n := range []int{13, 14} {
		for name, in := range phaseCases(t, n, rand.New(rand.NewSource(int64(2200+n)))) {
			ws := newWorkspace(floatStreamKernel(t, mustIsing(t, in), name), nil)
			x := testParams(2).Vector()
			grad := make([]float64, len(x))
			ws.ValueGrad(x, grad) // warm-up: adjoint buffer, chunk scratch
			if allocs := testing.AllocsPerRun(10, func() {
				ws.ExpectationVec(x)
				ws.ValueGrad(x, grad)
			}); allocs != 0 {
				t.Errorf("%s n=%d: a warm ExpectationVec + ValueGrad allocates %v times", name, n, allocs)
			}
			ws.Close()
		}
	}
}

// BenchmarkFloatPhase times one expectation and one value+gradient
// (p = 3) on the float stream kernel, built directly: the three families
// whose coefficients take it (maxksat and partition memoize below
// StreamingThreshold; portfolio streams at every size). maxksat and
// portfolio carry fields (full register), partition evolves half of one;
// ns/amp/layer is per stored amplitude and stage.
func BenchmarkFloatPhase(b *testing.B) {
	const p = 3
	x, grad := testParams(p).Vector(), make([]float64, 2*p)
	for _, fam := range []string{problem.FamilyMaxKSAT, problem.FamilyPartition, problem.FamilyPortfolio} {
		for _, n := range []int{13, 14, 16} {
			spec, err := problem.RandomSpec(fam, n, rand.New(rand.NewSource(int64(n))))
			if err != nil {
				b.Fatal(err)
			}
			pb := mustNew(b, spec)
			k := floatStreamKernel(b, pb, fam)
			ws := newWorkspace(k, nil)
			amps := 1 << uint(k.qubits())
			report := func(b *testing.B) {
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(ns/1e3, "µs/op")
				b.ReportMetric(ns/float64(p*amps), "ns/amp/layer")
			}
			var sink float64
			b.Run(fmt.Sprintf("%s/n%d/expect", fam, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sink += ws.ExpectationVec(x)
				}
				report(b)
			})
			b.Run(fmt.Sprintf("%s/n%d/valuegrad", fam, n), func(b *testing.B) {
				sink += ws.ValueGrad(x, grad) // draws the adjoint buffer
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sink += ws.ValueGrad(x, grad)
				}
				report(b)
			})
			_ = sink
			ws.Close()
		}
	}
}

// The streaming kernels' chunk scratch must survive garbage collection:
// the old shared sync.Pool was cleared per P on every GC, so a steady
// evaluation stream re-allocated scratch once per P per cycle and
// bytes/op grew with GOMAXPROCS (53 KB/op at 8 procs on ising/n20).
// The bounded channel freelists are GC-immune; a warm expectation now
// stays under a flat byte budget even with a forced GC before every
// call.
func TestStreamScratchSurvivesGC(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	runtime.GOMAXPROCS(8)

	problems := map[string]*Problem{}
	ising, err := NewIsing(problem.RandomIsing(20, rand.New(rand.NewSource(61))))
	if err != nil {
		t.Fatal(err)
	}
	problems["ising/n20"] = ising
	f := problem.RandomMaxKSAT(14, 6, 3, rand.New(rand.NewSource(62)))
	ksat, err := New(problem.MaxKSAT(f))
	if err != nil {
		t.Fatal(err)
	}
	problems["maxksat/n20"] = ksat

	x := []float64{0.4, 0.3}
	for name, pb := range problems {
		k := pb.kernel().(*isingStreamKernel)
		primeScratch(k.scratch, 1<<uint(k.cb))
		w := pb.NewWorkspace()
		for i := 0; i < 3; i++ {
			w.ExpectationVec(x) // warm pool workers and factor tables
		}
		const iters = 20
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < iters; i++ {
			runtime.GC() // would clear sync.Pool caches; freelists survive
			w.ExpectationVec(x)
		}
		runtime.ReadMemStats(&after)
		perOp := float64(after.TotalAlloc-before.TotalAlloc) / iters
		if perOp > 4096 {
			t.Errorf("%s: %.0f bytes/op allocated across GC cycles at GOMAXPROCS 8, want flat (<= 4096)",
				name, perOp)
		}
	}
}

// primeScratch stocks a kernel's scratch freelist with fully-sized
// buffers up to the worst-case concurrent-holder count, so the
// measurement loop never hits a first-use allocation. Priming through
// the old sync.Pool would be useless — the first GC emptied it.
func primeScratch(l scratchList, clen int) {
	bufs := make([]*streamScratch, 16)
	for i := range bufs {
		ws := l.get()
		ws.genBuf(clen)
		ws.idxBuf(clen)
		bufs[i] = ws
	}
	for _, ws := range bufs {
		l.put(ws)
	}
}

// Parallel throughput floor for the streaming Ising path, pinning the
// satellite fix (per-worker allocation growth ate the 2-worker win):
// with real cores available, 2 workers must beat 1 by >= 1.5x on the
// n=20 streaming kernels. Skipped where the hardware cannot show it.
func TestIsingStreamTwoWorkerSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement skipped in short mode")
	}
	if raceEnabled {
		t.Skip("timings are not meaningful under -race")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs to measure parallel speedup, have %d", runtime.NumCPU())
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	ising, err := NewIsing(problem.RandomIsing(20, rand.New(rand.NewSource(61))))
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.4, 0.3}
	w := ising.NewWorkspace()
	measure := func(procs int) float64 {
		runtime.GOMAXPROCS(procs)
		w.ExpectationVec(x) // warm at this worker count
		best := 0.0
		for rep := 0; rep < 5; rep++ {
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					w.ExpectationVec(x)
				}
			})
			opsPerSec := float64(res.N) / res.T.Seconds()
			if opsPerSec > best {
				best = opsPerSec
			}
		}
		return best
	}
	serial := measure(1)
	parallel := measure(2)
	if speedup := parallel / serial; speedup < 1.5 {
		t.Errorf("ising/n20 2-worker speedup %.2fx, want >= 1.5x", speedup)
	}
}

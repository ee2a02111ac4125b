package qaoa

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"qaoaml/internal/graph"
	"qaoaml/internal/problem"
)

// newMaterializedKernel builds the memoized table kernel of an instance
// whatever its size and distinct share: the reference the stream kernel
// is held to.
func newMaterializedKernel(in *problem.Instance, half bool) *diagKernel {
	return memoKernel(in, half, 1)
}

// coldFamilies are the five families the cold mixes draw.
var coldFamilies = []string{problem.FamilyMaxCut, problem.FamilyQUBO, problem.FamilyMaxKSAT, problem.FamilyPartition, problem.FamilyPortfolio}

// kernelKind names how a kernel applies its phases: "memo" for the
// materialized table, "int" for the stream kernel's integer path (a
// factor per T slot) and "dbl" for its float path (doubled per chunk).
func kernelKind(k costKernel) string {
	switch k := k.(type) {
	case *diagKernel:
		return "memo"
	case *isingStreamKernel:
		if k.integer {
			return "int"
		}
		return "dbl"
	}
	return fmt.Sprintf("%T", k)
}

// selectionSpec draws a family's n-qubit instance: RandomSpec from its
// minimum of 4 qubits, the family's own generator below it (a fielded
// ±1 spin pair for QUBO).
func selectionSpec(t *testing.T, fam string, n int, rng *rand.Rand) problem.Spec {
	t.Helper()
	if n >= 4 {
		spec, err := problem.RandomSpec(fam, n, rng)
		if err != nil {
			t.Fatalf("%s n=%d: %v", fam, n, err)
		}
		return spec
	}
	switch fam {
	case problem.FamilyMaxCut:
		return problem.MaxCut(graph.ErdosRenyiConnected(n, 0.5, rng))
	case problem.FamilyQUBO:
		return problem.FromInstance(&problem.Instance{Family: problem.FamilyQUBO, Sense: problem.Minimize, N: n, Vars: n,
			Linear: []float64{1, -1}, Quad: []problem.Term{{I: 0, J: 1, W: 1}}})
	case problem.FamilyMaxKSAT:
		return problem.MaxKSAT(problem.RandomMaxKSAT(n, 3*n, 2, rng))
	case problem.FamilyPartition:
		return problem.Partition(problem.RandomPartition(n, rng))
	case problem.FamilyPortfolio:
		return problem.Portfolio(problem.RandomPortfolio(n, rng))
	}
	t.Fatalf("no n=%d draw for %s", n, fam)
	return problem.Spec{}
}

// TestKernelSelection pins which kernel newIsingKernel picks, and how it
// applies phases, per family and size: one letter per n of sizes — m the
// memoized table, i the stream kernel's integer path, d its doubling
// float path, - not drawn. Below StreamingThreshold a Hamiltonian
// memoizes unless its coefficients are not integral and its distinct
// phase values pass 1/maxDistinctShare of the register (portfolio
// everywhere, the 4-qubit Max-2-SAT, a float-weighted MaxCut, a portfolio
// on all but the top qubit: one half); exactly that share still memoizes
// (a portfolio on all but the top two: one quarter). An integer one
// memoizes at any share (small partitions, the 2-qubit Max-2-SAT draw,
// the power-of-two fields: every value distinct). From the threshold
// everything streams, the integer families exactly and the rest by
// doubling. Every workspace the problem builds — with and without an
// arena — runs the one kernel, and a warm
// ExpectationVec + ValueGrad allocates nothing.
func TestKernelSelection(t *testing.T) {
	sizes := []int{2, 4, 8, 10, 12, 13, 14, 15, 16}
	family := func(fam string) func(*testing.T, int, *rand.Rand) problem.Spec {
		return func(t *testing.T, n int, rng *rand.Rand) problem.Spec { return selectionSpec(t, fam, n, rng) }
	}
	// A portfolio draw on the low n−idle qubits: 2^(n−idle) distinct
	// values over 2^n amplitudes.
	lowPortfolio := func(idle int) func(*testing.T, int, *rand.Rand) problem.Spec {
		return func(t *testing.T, n int, rng *rand.Rand) problem.Spec {
			in, err := selectionSpec(t, problem.FamilyPortfolio, n-idle, rng).Compile()
			if err != nil {
				t.Fatal(err)
			}
			return problem.FromInstance(lowSupport(in, n))
		}
	}
	rows := []struct {
		name  string
		kinds string
		spec  func(t *testing.T, n int, rng *rand.Rand) problem.Spec
	}{
		{problem.FamilyMaxCut, "mmmmmmmii", family(problem.FamilyMaxCut)},
		{problem.FamilyQUBO, "mmmmmmmii", family(problem.FamilyQUBO)},
		{problem.FamilyMaxKSAT, "mdmmmmmdd", family(problem.FamilyMaxKSAT)},
		{problem.FamilyPartition, "mmmmmmmdd", family(problem.FamilyPartition)},
		{problem.FamilyPortfolio, "ddddddddd", family(problem.FamilyPortfolio)},
		{"maxcut-float", "ddddddddd", func(t *testing.T, n int, rng *rand.Rand) problem.Spec {
			g := graph.New(n)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if j == i+1 || rng.Intn(2) == 0 {
						if err := g.AddWeightedEdge(i, j, 0.25+1.5*rng.Float64()); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			return problem.MaxCut(g)
		}},
		// Fields 2^i: every basis state has its own value, and from
		// n = 15 the span overflows the stream kernel's factor table.
		{"qubo-int-distinct", "mmmmmmmdd", func(t *testing.T, n int, rng *rand.Rand) problem.Spec {
			in := &problem.Instance{Family: problem.FamilyQUBO, Sense: problem.Minimize, N: n, Vars: n, Linear: make([]float64, n)}
			for i := range in.Linear {
				in.Linear[i] = float64(int(1) << uint(i))
				if i > 0 {
					in.Quad = append(in.Quad, problem.Term{I: i - 1, J: i, W: float64(1 - 2*rng.Intn(2))})
				}
			}
			return problem.FromInstance(in)
		}},
		{"portfolio-low-half", "-dddddddd", lowPortfolio(1)},
		{"portfolio-low-quarter", "-mmmmmmdd", lowPortfolio(2)},
	}
	x := testParams(2).Vector()
	grad := make([]float64, len(x))
	arena := NewArena(0)
	defer arena.Close()
	for _, r := range rows {
		if len(r.kinds) != len(sizes) {
			t.Fatalf("%s: %d kinds for %d sizes", r.name, len(r.kinds), len(sizes))
		}
		for i, n := range sizes {
			if r.kinds[i] == '-' {
				continue
			}
			pb := mustNew(t, r.spec(t, n, rand.New(rand.NewSource(int64(3000+n)))))
			at := fmt.Sprintf("%s n=%d", r.name, n)
			k := pb.kernel()
			want := map[byte]string{'m': "memo", 'i': "int", 'd': "dbl"}[r.kinds[i]]
			if got := kernelKind(k); got != want {
				mat := newMaterializedKernel(pb.Inst, pb.halfRegister())
				t.Errorf("%s: picked %s, want %s (integer %v, %d distinct of %d)",
					at, got, want, pb.Inst.IntegerCoeffs(), len(mat.halfAngles), len(mat.diag))
				continue
			}
			workspaces := []*EvalWorkspace{pb.NewWorkspace(), newWorkspace(pb.kernel(), arena)}
			for _, w := range workspaces {
				if w.k != k {
					t.Errorf("%s: a workspace runs %T %p, the problem's kernel is %p", at, w.k, w.k, k)
				}
			}
			if !raceEnabled {
				ws := workspaces[0]
				ws.ValueGrad(x, grad) // warm-up: adjoint buffer, chunk scratch
				if allocs := testing.AllocsPerRun(5, func() {
					ws.ExpectationVec(x)
					ws.ValueGrad(x, grad)
				}); allocs != 0 {
					t.Errorf("%s: a warm ExpectationVec + ValueGrad on the %s kernel allocates %v times", at, want, allocs)
				}
			}
			for _, w := range workspaces {
				w.Release()
			}
		}
	}
}

// lowSupport widens a k-qubit instance to n qubits whose top n−k carry no
// term: at most 2^k distinct phase values over 2^n amplitudes, with the
// low bits' couplings as dense as the instance's own.
func lowSupport(in *problem.Instance, n int) *problem.Instance {
	out := *in
	out.N, out.Vars = n, n
	out.Linear = append(append([]float64(nil), in.Linear...), make([]float64, n-len(in.Linear))...)
	return &out
}

// BenchmarkKernelChoice times the kernels an instance can run on — the
// memoized tables (memo), the stream kernel (stream) and the one
// newIsingKernel picks (selected) — on one build, one expectation and one
// value+gradient (p = 2). Each iteration runs memo and stream in turn
// (and, for the build, newIsingKernel), so a host that changes speed
// mid-run moves them together; an evaluation on the selected kernel is
// the one it picked. The metrics are µs per kernel, stream/memo, and the
// instance's distinct phase values as a share of the register. Two
// sweeps set the two constants of the choice:
//
//   - the five cold-mix families at n = 8…18 (RandomSpec, seed n): what
//     memo saves per evaluation against what its tables cost sets
//     StreamingThreshold;
//   - a dense float Hamiltonian (a portfolio draw) on the low k qubits of
//     an n-qubit register, n = 8…14, k = n−4…n: distinct share 2^(k−n)
//     at a fixed register, the stream kernel on its float path. Where
//     memo and stream cross is maxDistinctShare.
func BenchmarkKernelChoice(b *testing.B) {
	const p = 2
	x, grad := testParams(p).Vector(), make([]float64, 2*p)
	kinds := [3]string{"memo", "stream", "selected"}
	run := func(b *testing.B, name string, in *problem.Instance, half bool) {
		builds := [3]func() costKernel{
			func() costKernel { return newMaterializedKernel(in, half) },
			func() costKernel { return newIsingStreamKernel(in, half) },
			func() costKernel { return newIsingKernel(in, half) },
		}
		var ws [2]*EvalWorkspace
		for i := range ws {
			ws[i] = newWorkspace(builds[i](), nil)
			ws[i].ValueGrad(x, grad) // draws the adjoint buffer
		}
		mat := ws[0].k.(*diagKernel)
		share := float64(len(mat.halfAngles)) / float64(len(mat.diag))
		pick := 0
		if _, ok := newIsingKernel(in, half).(*isingStreamKernel); ok {
			pick = 1
		}
		for _, op := range []struct {
			name  string
			kinds int // how many of memo, stream, selected to run
			do    func(i int)
		}{
			{"build", 3, func(i int) { builds[i]() }},
			{"expect", 2, func(i int) { ws[i].ExpectationVec(x) }},
			{"valuegrad", 2, func(i int) { ws[i].ValueGrad(x, grad) }},
		} {
			b.Run(name+"/"+op.name, func(b *testing.B) {
				var took [3]time.Duration
				for n := 0; n < b.N; n++ {
					for i := 0; i < op.kinds; i++ {
						start := time.Now()
						op.do(i)
						took[i] += time.Since(start)
					}
				}
				if op.kinds == 2 {
					took[2] = took[pick]
				}
				for i, kind := range kinds {
					b.ReportMetric(float64(took[i].Nanoseconds())/float64(b.N)/1e3, kind+"-µs")
				}
				b.ReportMetric(float64(took[1])/float64(took[0]), "stream/memo")
				b.ReportMetric(share, "share")
			})
		}
		for _, w := range ws {
			w.Close()
		}
	}
	for n := 8; n <= 18; n++ {
		for _, fam := range coldFamilies {
			spec, err := problem.RandomSpec(fam, n, rand.New(rand.NewSource(int64(n))))
			if err != nil {
				b.Fatal(err)
			}
			pb := mustNew(b, spec)
			run(b, fmt.Sprintf("%s/n%d", fam, n), pb.Inst, pb.halfRegister())
		}
	}
	for n := 8; n <= 14; n += 2 {
		for k := n - 4; k <= n; k++ {
			spec, err := problem.RandomSpec(problem.FamilyPortfolio, k, rand.New(rand.NewSource(int64(k))))
			if err != nil {
				b.Fatal(err)
			}
			in, err := spec.Compile()
			if err != nil {
				b.Fatal(err)
			}
			run(b, fmt.Sprintf("share/n%d/k%d", n, k), lowSupport(in, n), false)
		}
	}
}

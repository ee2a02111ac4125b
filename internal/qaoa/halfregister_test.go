package qaoa

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"qaoaml/internal/graph"
	"qaoaml/internal/problem"
)

// Differential oracle for half-register evolution (workspace.go,
// quantum/mirror.go). A Hamiltonian without linear terms is evolved on
// 2^(n−1) amplitudes; this file holds that engine to two code-disjoint
// references on seeded instances of every field-free kind the
// constructors produce:
//
//   - the gate-level oracle, GateState(pr), on all 2^n amplitudes;
//   - the same couplings forced through the full-register sweep — the
//     engine every Hamiltonian with a field still runs — by the
//     test-only constructor fullRegisterKernel.
//
// Half and full agree to rounding only (they sum different terms in
// different orders). What stays exact is each half-register path with
// itself: 1 ≡ 2 ≡ 4 shards ≡ any GOMAXPROCS, and materialized ≡ streaming
// where the stream kernel takes its int64 path, all by ==.

// fullRegisterKernel builds the instance's kernel over all 2^n basis
// states whatever its fields: what newIsingKernel picks for a
// Hamiltonian with one.
func fullRegisterKernel(in *problem.Instance) costKernel { return newIsingKernel(in, false) }

// scoreTable is the gate circuit's observable: Score(z) summed term by
// term by the problem package, the graph's own cut table for MaxCut —
// no code shared with the kernels' tables.
func scoreTable(pb *Problem) []float64 {
	if pb.Graph != nil {
		return pb.Graph.WeightedCutTable()
	}
	table := make([]float64, 1<<uint(pb.Inst.N))
	for z := range table {
		table[z] = pb.Inst.Score(uint64(z))
	}
	return table
}

type halfCase struct {
	name string
	pb   *Problem
	// unit marks O(1) couplings, where central differences at fdStep
	// are a meaningful reference (their truncation error grows with the
	// cube of the coupling scale).
	unit bool
}

// halfCases draws the n-qubit field-free population: unweighted,
// integer- and float-weighted MaxCut through NewProblem, partition
// through its compiler (the benchmark's integers, and unit-scale
// floats), and J-only Ising instances through NewIsing with a nil and
// an all-zero Linear. Every coupling set reaches qubit n−1, the one a
// half register does not store.
func halfCases(t *testing.T, n int, rng *rand.Rand) []halfCase {
	t.Helper()
	var cases []halfCase
	add := func(name string, unit bool, pb *Problem, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("n=%d %s: %v", n, name, err)
		}
		cases = append(cases, halfCase{fmt.Sprintf("%s/n%d", name, n), pb, unit})
	}
	base := graph.ErdosRenyiConnected(n, 0.5, rng)
	reweigh := func(w func() float64) *graph.Graph {
		g := graph.New(n)
		for _, e := range base.Edges() {
			if err := g.AddWeightedEdge(e.U, e.V, w()); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	pb, err := NewProblem(base)
	add("maxcut", true, pb, err)
	pb, err = NewProblem(reweigh(func() float64 { return float64(1 + rng.Intn(4)) }))
	add("maxcut-int", true, pb, err)
	pb, err = NewProblem(reweigh(func() float64 { return 0.25 + 1.5*rng.Float64() }))
	add("maxcut-float", true, pb, err)

	pb, err = New(problem.Partition(problem.RandomPartition(n, rng)))
	add("partition", false, pb, err)
	nums := make([]float64, n)
	for i := range nums {
		nums[i] = 0.1 + 0.5*rng.Float64()
	}
	pb, err = New(problem.Partition(nums))
	add("partition-unit", true, pb, err)

	jOnly := func(w func() float64, linear []float64) *problem.Instance {
		in := &problem.Instance{Family: problem.FamilyQUBO, Sense: problem.Sense(1 - 2*rng.Intn(2)), N: n, Vars: n, Linear: linear, Offset: 0.75}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if j == i+1 || rng.Intn(3) == 0 { // the chain keeps every qubit coupled
					in.Quad = append(in.Quad, problem.Term{I: i, J: j, W: w()})
				}
			}
		}
		return in
	}
	pb, err = NewIsing(jOnly(func() float64 { return float64(1-2*rng.Intn(2)) / 2 }, make([]float64, n)))
	add("ising-int", true, pb, err)
	pb, err = NewIsing(jOnly(func() float64 { return 2*rng.Float64() - 1 }, nil))
	add("ising-float", true, pb, err)
	return cases
}

// halfKernels returns the problem's half-register kernels of both
// kinds, whichever one its size selects: the materialized table and the
// chunk-streamed generator.
func halfKernels(pb *Problem) map[string]costKernel {
	return map[string]costKernel{
		"materialized": newMaterializedKernel(pb.Inst, true),
		"streaming":    newIsingStreamKernel(pb.Inst, true),
	}
}

// halfShardBits lists the shard layouts an n-qubit problem's half
// register admits, one shard first (a shard of several holds at least
// one 2^13 chunk).
func halfShardBits(n int) []int {
	var out []int
	for sb := 0; sb <= 2 && (sb == 0 || n-1-sb >= 13); sb++ {
		out = append(out, sb)
	}
	return out
}

func TestHalfRegisterMatchesFullRegisterAndCircuit(t *testing.T) {
	// n = 2: the half register is one qubit, whose RX partner is its
	// mirror partner. n = 3, 4: the smallest even and odd widths, the
	// latter the smallest fused pass. Through 14: single chunk. 15, 16:
	// two and four chunks, one and two shard bits. 17: on the pool.
	sizes := []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	if !testing.Short() {
		sizes = append(sizes, 17)
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(1700))
	for _, n := range sizes {
		cases := halfCases(t, n, rng)
		if n >= 15 {
			// One instance per kernel arithmetic: integer MaxCut, dense
			// integer Ising, float Ising.
			cases = []halfCase{cases[1], cases[3], cases[6]}
		}
		for _, c := range cases {
			in := c.pb.Inst
			if !in.FieldFree() {
				t.Fatalf("%s: instance has a field", c.name)
			}
			scale, freq := coeffScale(in)
			selected := c.pb.kernel()
			if !selected.mirror() || selected.qubits() != n-1 {
				t.Fatalf("%s: selected kernel %T evolves %d qubits (mirror %v), want the %d-qubit half register",
					c.name, selected, selected.qubits(), selected.mirror(), n-1)
			}
			fullK := fullRegisterKernel(in)
			if fullK.mirror() || fullK.qubits() != n {
				t.Fatalf("%s: full-register kernel evolves %d qubits (mirror %v)", c.name, fullK.qubits(), fullK.mirror())
			}
			full := newWorkspace(fullK, nil)
			// The selected kernel takes its kind's place, so the kernel the
			// public constructors build is one of the two compared (which
			// one, TestKernelSelection pins).
			kernels := halfKernels(c.pb)
			pick := "materialized"
			if _, ok := selected.(*isingStreamKernel); ok {
				pick = "streaming"
			}
			kernels[pick] = selected

			depths := []int{1, 2, 3, 4}
			if n >= 15 {
				depths = []int{1, 3} // odd and even stage counts still alternate
			}
			procs := []int{1}
			if n >= 15 {
				procs = []int{1, 2, 8} // below, a single chunk: nothing to schedule
			}
			for _, p := range depths {
				pr := randomParams(rng, p)
				x := pr.Vector()
				label := fmt.Sprintf("%s p=%d", c.name, p)

				wantGrad := make([]float64, len(x))
				want := full.ValueGrad(x, wantGrad)
				// Gate by gate is slow on wide registers: every depth through
				// n = 12, one stage above, and under -short (the race matrix)
				// not past the single-chunk sizes.
				if n <= 12 || (p == 1 && (n <= 14 || !testing.Short())) {
					circuit := c.pb.GateState(pr).ExpectationDiagonal(scoreTable(c.pb))
					if d := math.Abs(want - circuit); d > 1e-12*scale {
						t.Errorf("%s: full-register value %v, gate circuit %v (|Δ| = %g)", label, want, circuit, d)
					}
					if got := c.pb.Expectation(pr); math.Abs(got-circuit) > 1e-12*scale {
						t.Errorf("%s: Expectation %v, gate circuit %v (|Δ| = %g)", label, got, circuit, math.Abs(got-circuit))
					}
				}

				exact := map[string][]float64{} // kernel → [value, grad…] on one shard
				for kind, k := range kernels {
					klabel := label + " " + kind
					w := newWorkspace(k, nil)
					grad := make([]float64, len(x))
					val := w.ValueGrad(x, grad)
					if ev := w.ExpectationVec(x); ev != val {
						t.Errorf("%s: ExpectationVec %v != ValueGrad value %v", klabel, ev, val)
					}
					if d := math.Abs(val - want); d > 1e-12*scale {
						t.Errorf("%s: value %v, full register %v (|Δ| = %g > %g)", klabel, val, want, d, 1e-12*scale)
					}
					for i := range grad {
						if d := math.Abs(grad[i] - wantGrad[i]); d > 1e-10*scale*freq {
							t.Errorf("%s: grad[%d] = %v, full register %v (|Δ| = %g > %g)", klabel, i, grad[i], wantGrad[i], d, 1e-10*scale*freq)
						}
					}
					if c.unit && n <= 10 && kind == pick {
						for i := range x {
							fd := centralFD(w.ExpectationVec, x, i)
							if d := math.Abs(grad[i] - fd); d > 1e-6*math.Max(1, scale) {
								t.Errorf("%s: grad[%d] = %v, central difference %v (|Δ| = %g)", klabel, i, grad[i], fd, d)
							}
						}
					}
					exact[kind] = append([]float64{val}, grad...)

					// 1 ≡ 2 ≡ 4 shards ≡ any GOMAXPROCS, by ==.
					layouts := []*EvalWorkspace{w}
					for _, sb := range halfShardBits(n)[1:] {
						layouts = append(layouts, newShardedWorkspace(k, sb, nil))
					}
					for _, np := range procs {
						runtime.GOMAXPROCS(np)
						for li, ws := range layouts {
							g := make([]float64, len(x))
							got := append([]float64{ws.ValueGrad(x, g)}, g...)
							for i := range got {
								if got[i] != exact[kind][i] {
									t.Errorf("%s layout %d (%d shards) GOMAXPROCS=%d: component %d = %v != the first one-shard run's %v",
										klabel, li, ws.Shards(), np, i, got[i], exact[kind][i])
								}
							}
						}
					}
					runtime.GOMAXPROCS(prev)
					for _, ws := range layouts {
						ws.Close()
					}
				}
				// == where the stream kernel ran its int64 path. Integer
				// couplings past its factor table (partition) take the float
				// path, whose doubled phases round apart from the table's
				// Sincos: the bounds above, between the two.
				if in.IntegerCoeffs() {
					exactPath := kernels["streaming"].(*isingStreamKernel).integer
					for i, v := range exact["materialized"] {
						sv, tol := exact["streaming"][i], 0.0
						if !exactPath {
							tol = 1e-10 * scale * freq
							if i == 0 {
								tol = 1e-12 * scale
							}
						}
						if d := math.Abs(v - sv); d > tol {
							t.Errorf("%s: materialized component %d = %v, streaming %v on integer couplings (|Δ| = %g > %g)", label, i, v, sv, d, tol)
						}
					}
				}
			}
		}
	}
}

// The choice is made from the Hamiltonian alone and is exact: any
// nonzero field, however small, selects the full register — and the
// two engines still agree to rounding, the field being far below it.
func TestHalfRegisterSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(1701))
	for _, n := range []int{2, 5, 9, 14} {
		for _, c := range halfCases(t, n, rng) {
			in := *c.pb.Inst
			in.Linear = make([]float64, n)
			in.Linear[rng.Intn(n)] = 1e-300
			fielded := mustIsing(t, &in)
			if k := fielded.kernel(); k.mirror() || k.qubits() != n || fielded.halfRegister() || fielded.stateQubits() != n {
				t.Fatalf("%s: a 1e-300 field left the half register selected (%T, %d qubits)", c.name, k, k.qubits())
			}
			if !c.pb.halfRegister() || c.pb.stateQubits() != n-1 {
				t.Fatalf("%s: field-free problem reports %d state qubits", c.name, c.pb.stateQubits())
			}
			scale, _ := coeffScale(&in)
			pr := randomParams(rng, 2)
			if h, f := c.pb.Expectation(pr), fielded.Expectation(pr); math.Abs(h-f) > 1e-12*scale {
				t.Errorf("%s: half-register value %v, with a 1e-300 field %v", c.name, h, f)
			}
			// The readout is an assignment with the top bit clear, one of
			// the most probable of the unfolded state, and the evaluator's.
			score, assign := c.pb.BestSampled(pr)
			st := c.pb.State(pr)
			_, pmax := st.ArgmaxProbability()
			if assign >= 1<<uint(n-1) || math.Abs(st.Probability(assign)-pmax) > 1e-14 {
				t.Errorf("%s: readout %b has probability %v, the maximum is %v", c.name, assign, st.Probability(assign), pmax)
			}
			ev := NewEvaluator(c.pb, 2)
			if es, ea := ev.BestSampled(pr); es != score || ea != assign {
				t.Errorf("%s: Evaluator.BestSampled (%v, %b) != Problem.BestSampled (%v, %b)", c.name, es, ea, score, assign)
			}
		}
	}
}

// pinRegular is the pinned 3-regular MaxCut graph on n vertices.
func pinRegular(n int) *graph.Graph {
	return graph.RandomRegular(n, 3, rand.New(rand.NewSource(int64(400+n))))
}

// pinCases are recorded evaluations at x = fieldedPinX (p = 3), which
// every layout must reproduce bit for bit:
//
//   - problem.RandomIsing(n, seed 17), recorded at the parent of the
//     half-register change (commit 2a863cc): a Hamiltonian with fields
//     evaluates exactly as it did. n = 10 is the materialized kernel,
//     n = 15 the streaming one.
//   - MaxCut, recorded at the parent of the one-Hamiltonian-path change
//     (commit 4f9b77a) from the graph kernels it deleted (cut table,
//     edge-list stream): 3-regular unweighted n = 8 (materialized), 14
//     and 20 (streamed), and n = 14 with integer weights 1 + i mod 4 in
//     edge order.
//   - portfolio (fields, full register) and partition (field-free, half;
//     integer couplings past the stream kernel's factor table) from
//     problem.RandomSpec(seed 17), n = 13…15: the float stream path,
//     recorded at the change that built its phases by doubling
//     (fillPhase) — not a parent's bits, a marker that tells the next
//     kernel change when it moves them.
//
// pins are Float64bits of [⟨C⟩, ∂γ1…, ∂β1…]; opt is OptValue; d1 are
// Float64bits of the depth-1 closed form's NegValueGrad [−⟨C⟩, −∂γ,
// −∂β] at (fieldedPinX[0], fieldedPinX[3]).
var (
	fieldedPinX = []float64{0.41, 0.87, 1.31, 0.33, 0.58, 0.21}
	pinCases    = []struct {
		name  string
		build func(t *testing.T) *Problem
		long  bool // skipped under -short
		opt   float64
		pins  [7]uint64
		d1    [3]uint64
	}{
		{"ising/n10", func(t *testing.T) *Problem {
			return mustIsing(t, problem.RandomIsing(10, rand.New(rand.NewSource(17))))
		}, false, 15,
			[7]uint64{0xbfedd7ebd7d4a683, 0xc01cc6d7eaac1357, 0xc0239c8e808d6cd9, 0xc019126cfb87fc91, 0x40290ee4a7b9022c, 0xc023fd12a9e195f2, 0xbffc464f39a370aa},
			[3]uint64{0xc013f2c00d1f4af9, 0x40319c4242a3b656, 0xc01be8ffb7b0dd7d}},
		{"ising/n15", func(t *testing.T) *Problem {
			return mustIsing(t, problem.RandomIsing(15, rand.New(rand.NewSource(17))))
		}, false, 23,
			[7]uint64{0x4008f67111d83c7f, 0xc023b6ba7a543468, 0xc01010d24bea7e0b, 0x402979f7813c1d6a, 0xc013bc0ea6a79396, 0xc031c513e477e683, 0xc023caf030743d74},
			[3]uint64{0xc018ec3df449280c, 0x4043f70bcaf21d62, 0xc02158c58d3dc9f2}},
		{"maxcut/n8", func(t *testing.T) *Problem { return mustProblem(t, pinRegular(8)) }, false, 10,
			[7]uint64{0x401e6db2bfa0362e, 0x3fd18cde6d41b230, 0x3fd140b57c2296f4, 0xc005baad16275269, 0x400e2ae64ecf3c92, 0xc0181e0b4c0354a5, 0x3ff4c7c8e247e159},
			[3]uint64{0xc01f312674555aaf, 0xc001d12e8b8eb5b7, 0xbff385e6996b9bfa}},
		{"maxcut/n14", func(t *testing.T) *Problem { return mustProblem(t, pinRegular(14)) }, false, 19,
			[7]uint64{0x402af4aa0fe446f4, 0xbff11f150a6cc136, 0xbff72e4a8f221c39, 0xc00c85eb39c425f6, 0x40206a7536fbd5de, 0xc024f04e6250ead6, 0x3ff3a1c03aa677f5},
			[3]uint64{0xc02bab76c0f814af, 0xc012670edce7956d, 0xc008d9b528d75026}},
		{"maxcut/n20", func(t *testing.T) *Problem { return mustProblem(t, pinRegular(20)) }, true, 27,
			[7]uint64{0x4032bfda86c7fde9, 0xbfeb0a3a5d11108e, 0xbff1eccfa5535426, 0xc0169a5d646c79cb, 0x402405803bcee242, 0xc02ddcddebc3db18, 0x40014ad620465f52},
			[3]uint64{0xc033a54d46c78136, 0xc018857f17148eb0, 0xc00e9e3628410918}},
		{"maxcut-int/n14", func(t *testing.T) *Problem {
			g := graph.New(14)
			for i, e := range pinRegular(14).Edges() {
				if err := g.AddWeightedEdge(e.U, e.V, float64(1+i%4)); err != nil {
					t.Fatal(err)
				}
			}
			return mustProblem(t, g)
		}, false, 47,
			[7]uint64{0x4039401abc76a099, 0xc0296f063bc01120, 0xc022afdb2d63b4ff, 0x401542fe970941e8, 0x400e91c0ff090792, 0xc021bb31943b9db8, 0x4004b08e74f63da4},
			[3]uint64{0xc03ec4964b8b9c85, 0x40438bd6b7d82b8f, 0xc0156d997f74ac39}},
		{"portfolio/n13", pinFloatFamily(problem.FamilyPortfolio, 13), false, 0.8633052992031232,
			[7]uint64{0xc0448c0df1c089a8, 0x40760dcff0f92374, 0xc085da8d501efeea, 0xc069796e2858e22f, 0xc041cdd647a4f06b, 0xc031654a372bc7df, 0xc02b31227673f4ba},
			[3]uint64{0x402ddd79af57a74d, 0xc05f01085b12544b, 0x400cd4781d3a3c91}},
		{"portfolio/n14", pinFloatFamily(problem.FamilyPortfolio, 14), false, 0.7848259880567143,
			[7]uint64{0xc0401f86da07b3d6, 0x407282c0c5756e83, 0xc080835f13e196bb, 0xc071516ebce121b0, 0xc0557fe70bf7f3d6, 0x4047b97c00de48d7, 0xc02526f04d03b2f8},
			[3]uint64{0x4030f1709d813fde, 0xc071ce85203fd825, 0x402bdf6ed212c3f3}},
		{"portfolio/n15", pinFloatFamily(problem.FamilyPortfolio, 15), false, 0.026031553760136106, // four shards
			[7]uint64{0xc057965b86014a2e, 0x3fe0b4c7c9a04000, 0xc0835ac5e9149e2e, 0xc06b7b40b1a9317f, 0x40435f44c9d4154e, 0xc0480d578405e088, 0x4057a68ff7e2154e},
			[3]uint64{0x4045f4e8e749d82e, 0x408682c06b7bef1a, 0x40602f5e00b7960b}},
		{"partition/n13", pinFloatFamily(problem.FamilyPartition, 13), false, -1,
			[7]uint64{0xc0c0b68a9ba41731, 0x4153fa3f82fc44af, 0x41583809cee97263, 0x411e7c1e7c390d22, 0xc087100c8cdac3fc, 0x4061f326c296ce47, 0xc093eadeb090654e},
			[3]uint64{0x40c0cd30a8c90c18, 0xc14064b4a844ead2, 0x409bca801aa216ab}},
		{"partition/n14", pinFloatFamily(problem.FamilyPartition, 14), false, -1,
			[7]uint64{0xc0c0c1d1b1cbe319, 0x415c5295124494ca, 0x4152130c6a673975, 0xc136e4ae0287ca19, 0xc090e85a243ae485, 0x409e56f78b010b1c, 0x405557630aa4d43c},
			[3]uint64{0x40c0e29876464d0a, 0xc13f04a29f55c59e, 0x409e657bdd4156f0}},
	}
)

// pinFloatFamily builds the family's seeded n-qubit draw on the kernel
// its pins were taken on, the stream kernel's float path, whichever one
// newIsingKernel would pick (a partition below StreamingThreshold
// memoizes).
func pinFloatFamily(family string, n int) func(t *testing.T) *Problem {
	return func(t *testing.T) *Problem {
		spec, err := problem.RandomSpec(family, n, rand.New(rand.NewSource(17)))
		if err != nil {
			t.Fatal(err)
		}
		pb := mustNew(t, spec)
		k := floatStreamKernel(t, pb, family)
		pb.kernOnce.Do(func() { pb.kern = k })
		return pb
	}
}

func TestFieldedHamiltonianBitsUnchanged(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, c := range pinCases {
		if c.long && testing.Short() {
			continue
		}
		pb := c.build(t)
		if pb.OptValue != c.opt {
			t.Errorf("%s: OptValue %v, recorded %v", c.name, pb.OptValue, c.opt)
		}
		// One shard — what NewWorkspace builds, and what recorded most of
		// these bits as the flat layout — and four where each still holds a
		// chunk.
		layouts := map[string]*EvalWorkspace{"1 shard": pb.NewWorkspace()}
		if pb.stateQubits()-2 >= 13 {
			layouts["4 shards"] = newShardedWorkspace(pb.kernel(), 2, nil)
		}
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			for name, w := range layouts {
				label := fmt.Sprintf("%s %s GOMAXPROCS=%d", c.name, name, procs)
				grad := make([]float64, len(fieldedPinX))
				e := w.ExpectationVec(fieldedPinX)
				got := append([]float64{w.ValueGrad(fieldedPinX, grad)}, grad...)
				if math.Float64bits(e) != c.pins[0] {
					t.Errorf("%s: ExpectationVec bits %#x, recorded %#x", label, math.Float64bits(e), c.pins[0])
				}
				for i, v := range got {
					if math.Float64bits(v) != c.pins[i] {
						t.Errorf("%s: component %d bits %#x, recorded %#x", label, i, math.Float64bits(v), c.pins[i])
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
		for _, w := range layouts {
			w.Close()
		}
		grad := make([]float64, 2)
		v := NewEvaluator(pb, 1).NegValueGrad([]float64{fieldedPinX[0], fieldedPinX[3]}, grad)
		for i, got := range []float64{v, grad[0], grad[1]} {
			if math.Float64bits(got) != c.d1[i] {
				t.Errorf("%s: closed-form component %d bits %#x, recorded %#x", c.name, i, math.Float64bits(got), c.d1[i])
			}
		}
	}
}

// BenchmarkHalfRegister times one expectation and one value+gradient
// (p = 2) on a 3-regular MaxCut instance — a half register — against
// the same couplings plus one field on qubit 0, which evolve all 2^n
// amplitudes.
func BenchmarkHalfRegister(b *testing.B) {
	x, grad := testParams(2).Vector(), make([]float64, 4)
	for _, n := range []int{8, 14, 20} {
		g := graph.RandomRegular(n, 3, rand.New(rand.NewSource(int64(n))))
		in, err := problem.CompileMaxCut(g)
		if err != nil {
			b.Fatal(err)
		}
		fielded := *in
		fielded.Linear = make([]float64, n)
		fielded.Linear[0] = 0.5
		for _, c := range []struct {
			name string
			in   *problem.Instance
		}{{"fieldfree", in}, {"onefield", &fielded}} {
			pb := mustIsing(b, c.in)
			ws := pb.NewWorkspace()
			var sink float64
			b.Run(fmt.Sprintf("n%d/%s/expect", n, c.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sink += ws.ExpectationVec(x)
				}
			})
			b.Run(fmt.Sprintf("n%d/%s/valuegrad", n, c.name), func(b *testing.B) {
				sink += ws.ValueGrad(x, grad) // draws the adjoint buffer
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sink += ws.ValueGrad(x, grad)
				}
			})
			_ = sink
			ws.Close()
		}
	}
}

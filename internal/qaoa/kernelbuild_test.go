package qaoa

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"qaoaml/internal/problem"
)

// The kernel tables are summed term by term over constant-sign runs
// (addTerm); they used to be summed per basis state, every term per z.
// The per-z loops are kept below as the oracle, and every table the
// builders hand out must equal theirs by Float64bits: the materialized
// diag, gen, idx and halfAngles, the stream kernel's low-low tables
// tllInt / tllF and its float flip steps lowFlip / pairGen. Population:
// the six families from n = 4 and hand-built float and integer
// Hamiltonians from n = 2 — zero and −0 fields (skipped), repeated (i, j)
// couplings, a −0 coupling, field-free forms for the half register — at
// n = 2…14, full register and (field-free) half.
func TestTermMajorTablesMatchPerZLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(2500))
	for n := 2; n <= 14; n++ {
		for name, in := range buildCases(t, n, rng) {
			for _, half := range []bool{false, true} {
				if half && !in.FieldFree() {
					continue
				}
				at := fmt.Sprintf("%s n=%d half=%v", name, n, half)
				mat := newMaterializedKernel(in, half)
				diag, gen := perZIsingTables(in, mat.n)
				gotDiag, gotGen, _ := buildIsingTables(in, 1<<uint(mat.n))
				sameBits(t, at+" diag", gotDiag, diag)
				sameBits(t, at+" gen", gotGen, gen)
				sameBits(t, at+" kernel diag", mat.diag, diag)
				idx, angles := perZDistinct(gen)
				sameBits(t, at+" halfAngles", mat.halfAngles, angles)
				for z := range idx {
					if mat.idx[z] != idx[z] {
						t.Fatalf("%s: idx[%d] = %d, per-z %d", at, z, mat.idx[z], idx[z])
					}
				}

				k := newIsingStreamKernel(in, half)
				tllInt, tllF, lowFlip, pairGen := perZLowTables(in, k)
				if len(k.tllInt) != len(tllInt) {
					t.Fatalf("%s: %d integer low entries, per-z %d", at, len(k.tllInt), len(tllInt))
				}
				for z := range tllInt {
					if k.tllInt[z] != tllInt[z] {
						t.Fatalf("%s: tllInt[%d] = %d, per-z %d", at, z, k.tllInt[z], tllInt[z])
					}
				}
				sameBits(t, at+" tllF", k.tllF, tllF)
				sameBits(t, at+" lowFlip", k.lowFlip, lowFlip)
				sameBits(t, at+" pairGen", k.pairGen, pairGen)
			}
		}
	}
}

func sameBits(t *testing.T, at string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, per-z %d", at, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), per-z %v (%#x)", at, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// buildCases is the oracle's population at n qubits.
func buildCases(t *testing.T, n int, rng *rand.Rand) map[string]*problem.Instance {
	t.Helper()
	cases := map[string]*problem.Instance{}
	if n >= 4 {
		for _, fam := range problem.Families() {
			spec, err := problem.RandomSpec(fam, n, rng)
			if err != nil {
				t.Fatalf("%s n=%d: %v", fam, n, err)
			}
			in, err := spec.Compile()
			if err != nil {
				t.Fatalf("%s n=%d: %v", fam, n, err)
			}
			cases[fam] = in
		}
	}
	for _, integer := range []bool{false, true} {
		w := func() float64 {
			if integer {
				return float64(rng.Intn(9)-4) / 2
			}
			return 2*rng.Float64() - 1
		}
		var quad []problem.Term
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if j == i+1 || rng.Intn(2) == 0 {
					quad = append(quad, problem.Term{I: i, J: j, W: w()})
				}
			}
		}
		quad = append(quad, problem.Term{I: 0, J: n - 1, W: w()}, problem.Term{I: 0, J: 1, W: math.Copysign(0, -1)},
			problem.Term{I: (n - 1) / 2, J: n - 1, W: w()}, problem.Term{I: 0, J: 1, W: w()})
		fields := make([]float64, n)
		for i := range fields {
			if i%3 != 1 {
				fields[i] = w()
			}
		}
		fields[n-1] = math.Copysign(0, -1)
		freeFields := make([]float64, n) // zeros and a −0: still field-free
		freeFields[0] = math.Copysign(0, -1)
		kind := fmt.Sprintf("integer=%v", integer)
		for _, c := range []struct {
			name   string
			linear []float64
		}{{"fielded", fields}, {"field-free", freeFields}} {
			cases[c.name+"/"+kind] = &problem.Instance{Family: problem.FamilyQUBO, Sense: problem.Sense(1 - 2*rng.Intn(2)),
				N: n, Vars: n, Linear: c.linear, Quad: quad, Offset: 0.75}
		}
	}
	return cases
}

// perZIsingTables is the materialized tables' per-z sum: for each basis
// state, every nonzero field, then every coupling.
func perZIsingTables(in *problem.Instance, stateQubits int) (diag, gen []float64) {
	dim := 1 << uint(stateQubits)
	diag = make([]float64, dim)
	gen = make([]float64, dim)
	sign := in.Sense.Sign()
	senseOffset := sign * in.Offset
	if in.IntegerCoeffs() {
		for z := 0; z < dim; z++ {
			var t int64
			for i, h := range in.Linear {
				if h == 0 {
					continue
				}
				if (z>>uint(i))&1 == 0 {
					t += int64(2 * h)
				} else {
					t -= int64(2 * h)
				}
			}
			for _, q := range in.Quad {
				if (z>>uint(q.I))&1 == (z>>uint(q.J))&1 {
					t += int64(2 * q.W)
				} else {
					t -= int64(2 * q.W)
				}
			}
			half := float64(t) / 2
			diag[z] = senseOffset + sign*half
			gen[z] = -sign * half
		}
		return diag, gen
	}
	for z := 0; z < dim; z++ {
		t := 0.0
		for i, h := range in.Linear {
			if h == 0 {
				continue
			}
			if (z>>uint(i))&1 == 0 {
				t += 2 * h
			} else {
				t -= 2 * h
			}
		}
		for _, q := range in.Quad {
			if (z>>uint(q.I))&1 == (z>>uint(q.J))&1 {
				t += 2 * q.W
			} else {
				t -= 2 * q.W
			}
		}
		diag[z] = senseOffset + sign*(t/2)
		gen[z] = -sign * (t / 2)
	}
	return diag, gen
}

// perZDistinct is the materialized kernel's map factorization of gen:
// distinct values in first-seen order.
func perZDistinct(gen []float64) (idx []int32, angles []float64) {
	idx = make([]int32, len(gen))
	seen := make(map[float64]int32, 64)
	for z, a := range gen {
		j, ok := seen[a]
		if !ok {
			j = int32(len(angles))
			angles = append(angles, a)
			seen[a] = j
		}
		idx[z] = j
	}
	return idx, angles
}

// perZLowTables is the stream kernel's low-table construction with its
// per-local-state sum (couplings, then fields, each term as a·s_i·s_j),
// for the chunk width and arithmetic k chose.
func perZLowTables(in *problem.Instance, k *isingStreamKernel) (tllInt []int64, tllF, lowFlip, pairGen []float64) {
	var lowI, lowJ, lowLinIdx []int32
	var lowA, lowLinG []float64
	for _, q := range in.Quad {
		if q.J < k.cb {
			lowI, lowJ, lowA = append(lowI, int32(q.I)), append(lowJ, int32(q.J)), append(lowA, 2*q.W)
		}
	}
	for i, h := range in.Linear {
		if h != 0 && i < k.cb {
			lowLinIdx, lowLinG = append(lowLinIdx, int32(i)), append(lowLinG, 2*h)
		}
	}
	spin := func(z, b int32) float64 {
		if (z>>uint(b))&1 == 0 {
			return 1
		}
		return -1
	}
	nLow := 1 << uint(k.cb)
	if k.integer {
		tllInt = make([]int64, nLow)
		for z := range tllInt {
			var t int64
			for i := range lowI {
				t += int64(lowA[i]) * int64(spin(int32(z), lowI[i])*spin(int32(z), lowJ[i]))
			}
			for i, g := range lowLinG {
				t += int64(g) * int64(spin(int32(z), lowLinIdx[i]))
			}
			tllInt[z] = t
		}
		return tllInt, nil, nil, nil
	}
	lowFlip = make([]float64, k.cb)
	step := make([]float64, k.cb*k.cb)
	for i, a := range lowA {
		lowFlip[lowI[i]] -= 2 * a
		lowFlip[lowJ[i]] -= 2 * a
		step[int(lowJ[i])*k.cb+int(lowI[i])] -= k.sense * 2 * a
	}
	for i, g := range lowLinG {
		lowFlip[lowLinIdx[i]] -= 2 * g
	}
	for t := 0; t < k.cb; t++ {
		for _, g := range step[t*k.cb : t*k.cb+t] {
			if g != 0 {
				pairGen = append(pairGen, g)
			}
		}
	}
	tllF = make([]float64, nLow)
	for z := range tllF {
		t := 0.0
		for i := range lowI {
			t += lowA[i] * spin(int32(z), lowI[i]) * spin(int32(z), lowJ[i])
		}
		for i, g := range lowLinG {
			t += g * spin(int32(z), lowLinIdx[i])
		}
		tllF[z] = t
	}
	return nil, tllF, lowFlip, pairGen
}

// BenchmarkKernelBuild times building a problem's kernel — what a cold
// solve pays once before its first evaluation — for the five families of
// the cold mixes at n = 8, 12 and 14 (memoized but for portfolio, which
// streams), and reports it against one warm p = 3 value+gradient on the
// same problem.
func BenchmarkKernelBuild(b *testing.B) {
	const p = 3
	x, grad := testParams(p).Vector(), make([]float64, 2*p)
	for _, fam := range coldFamilies {
		for _, n := range []int{8, 12, 14} {
			spec, err := problem.RandomSpec(fam, n, rand.New(rand.NewSource(int64(n))))
			if err != nil {
				b.Fatal(err)
			}
			pb := mustNew(b, spec)
			b.Run(fmt.Sprintf("%s/n%d", fam, n), func(b *testing.B) {
				ws := pb.NewWorkspace()
				defer ws.Close()
				ws.ValueGrad(x, grad) // draws the adjoint buffer
				const reps = 20
				start := time.Now()
				for i := 0; i < reps; i++ {
					ws.ValueGrad(x, grad)
				}
				vg := float64(time.Since(start).Nanoseconds()) / reps
				b.ResetTimer()
				var sink costKernel
				for i := 0; i < b.N; i++ {
					sink = newIsingKernel(pb.Inst, pb.halfRegister())
				}
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(ns/1e3, "µs/build")
				b.ReportMetric(ns/vg, "build/valuegrad")
				_ = sink
			})
		}
	}
}

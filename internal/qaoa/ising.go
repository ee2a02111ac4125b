package qaoa

import "qaoaml/internal/problem"

// buildIsingTables materializes the Score diagonal and the phase
// generator gen(z) = −sense·(Σ h_i s_i + Σ J_ij s_i s_j) of a small
// instance for z < dim: 2^N, or 2^(N−1) for the lower half a half
// register evolves. It sums the doubled T(z) = Σ(2h)s + Σ(2J)ss term by
// term (addTerm; nonzero fields, then couplings: the order the float bits
// are pinned to) — in int64, returned as t, when the doubled coefficients
// are integral, else in gen's storage — and recovers both tables by exact
// halving: the streaming kernel's arithmetic, which is what makes
// materialized and streamed evaluation bit-identical (for an
// integer-weighted MaxCut, T = 2C − m gives gen = (m−2C)/2 and Score = C
// exactly).
func buildIsingTables(in *problem.Instance, dim int) (diag, gen []float64, t []int64) {
	diag, gen = make([]float64, dim), make([]float64, dim)
	if in.IntegerCoeffs() {
		t = make([]int64, dim)
		addInstanceTerms(t, in)
		for z, tz := range t {
			gen[z] = float64(tz)
		}
	} else {
		addInstanceTerms(gen, in)
	}
	sign := in.Sense.Sign()
	senseOffset := sign * in.Offset
	for z, tz := range gen {
		half := tz / 2
		diag[z] = senseOffset + sign*half
		gen[z] = -sign * half
	}
	return diag, gen, t
}

func addInstanceTerms[T int64 | float64](acc []T, in *problem.Instance) {
	for i, h := range in.Linear {
		if h != 0 {
			addTerm(acc, T(2*h), i, -1)
		}
	}
	for _, q := range in.Quad {
		addTerm(acc, T(2*q.W), q.I, q.J)
	}
}

// addTerm adds v·s_i(z)·s_j(z) to acc[z] for every z < len(acc) — v·s_i(z)
// when j < 0 — with s_b(z) = +1 where bit b of z is clear, −1 where it is
// set. The sign is constant on runs of 2^i, so the term costs one add per
// entry and no branch on z. A subtraction x − v has the bits of x + (−v):
// every entry equals the sum of the same signed terms in the same order
// taken one basis state at a time, bit for bit.
func addTerm[T int64 | float64](acc []T, v T, i, j int) {
	if j < 0 || 1<<uint(j) >= len(acc) { // s_j = +1 throughout
		addRuns(acc, v, i)
		return
	}
	span := 1 << uint(j)
	for lo := 0; lo < len(acc); lo += 2 * span {
		addRuns(acc[lo:lo+span], v, i)
		addRuns(acc[lo+span:lo+2*span], -v, i)
	}
}

// addRuns adds v·s_i(z) to acc[z]; len(acc) is a power of two. Runs of
// one take both signs of a period per step, where the general loop would
// spend a slice and a loop setup per entry.
func addRuns[T int64 | float64](acc []T, v T, i int) {
	run := 1 << uint(i)
	switch {
	case run >= len(acc):
		for z := range acc {
			acc[z] += v
		}
	case run == 1:
		for ; len(acc) >= 2; acc = acc[2:] {
			acc[0] += v
			acc[1] -= v
		}
	default:
		for ; len(acc) >= 2*run; acc = acc[2*run:] {
			up, down := acc[:run], acc[run:2*run]
			down = down[:len(up)]
			for z := range up {
				up[z] += v
				down[z] -= v
			}
		}
	}
}

// maxDistinctShare bounds the phase table the materialized kernel
// memoizes for float coefficients: one Sincos per distinct phase value
// per stage, kept while those values number at most 1/maxDistinctShare of
// the register's amplitudes. Past that the stream kernel's float path is
// cheaper: it builds the phases by doubling, two complex multiplies per
// amplitude and 1 + cb Sincos per chunk and stage (one or two chunks
// below StreamingThreshold). The two cross at a share of about 1/4:
// there the stream kernel's value+gradient takes 1.19, 1.00, 0.97 and
// 0.97 times the memo's at n = 8, 10, 12 and 14, at 1/2 0.73–0.92 times
// (BenchmarkKernelChoice's share sweep; EXPERIMENTS.md).
const maxDistinctShare = 4

// newIsingKernel picks the evaluation engine for an instance by its size
// and by what its phase table costs. From StreamingThreshold it is
// chunk-streamed generation. Below it, the materialized tables with
// memoized phase factors — unless the coefficients are not integral and
// the distinct phase values pass 1/maxDistinctShare of the register
// (random real coefficients, where nearly every amplitude has its own),
// and then the stream kernel, which builds them by doubling. Integral
// doubled coefficients keep the memo at any share: their distinct values
// are slots of T's span, never more than the span + 1 the stream kernel's
// factor table would take one Sincos each for, and a partition whose span
// overflows that table is no faster streamed. half builds the kernel over
// the lower half of the basis states, for a half register; the instance
// must then be FieldFree.
func newIsingKernel(in *problem.Instance, half bool) costKernel {
	if in.N < StreamingThreshold {
		share := 1
		if !in.IntegerCoeffs() {
			share = maxDistinctShare
		}
		if k := memoKernel(in, half, share); k != nil {
			return k
		}
	}
	return newIsingStreamKernel(in, half)
}

// memoKernel builds the table kernel of an instance of any size, or
// returns nil as soon as its distinct phase values pass 1/share of the
// register: share 1 always builds it.
func memoKernel(in *problem.Instance, half bool, share int) *diagKernel {
	n := in.N
	if half {
		n--
	}
	diag, gen, t := buildIsingTables(in, 1<<uint(n))
	k := newDiagKernelFromGen(n, diag, gen, t, len(diag)/share)
	if k != nil {
		k.half = half
	}
	return k
}

// ScoreValue returns the direction-normalized objective Score(z) =
// sense·Value(z) for an assignment — the cut weight for MaxCut. This is
// the quantity QAOA maximizes and the one reports should quote.
func (pb *Problem) ScoreValue(z uint64) float64 { return pb.Inst.Score(z) }

// BestSampled returns the most probable basis state's Score and
// assignment, i.e. the solution a user would read out after
// optimization. For families with auxiliary qubits (Max-3-SAT
// quadratization), the assignment still spans the full register; mask
// to Inst.Vars for the decision variables.
func (pb *Problem) BestSampled(pr Params) (score float64, assign uint64) {
	if err := pr.Validate(false); err != nil {
		panic(err)
	}
	// A transient workspace, read the way Evaluator.BestSampled reads
	// its own: a half register's most probable index is an assignment
	// with the top bit clear, the lower of the two equally probable
	// complements.
	w := newShardedWorkspace(pb.kernel(), 0, nil)
	w.runLayers(pr.Gamma, pr.Beta)
	assign = w.argmax()
	return pb.ScoreValue(assign), assign
}

// NormalizedScore maps an expectation ⟨Score⟩ onto [0, 1] between the
// instance's exact worst and best Scores — the cross-family analogue
// of the MaxCut approximation ratio (which divides by the optimum
// alone; see ApproximationRatio for the dispatch).
func (pb *Problem) NormalizedScore(e float64) float64 {
	return (e - pb.MinScore) / (pb.OptValue - pb.MinScore)
}

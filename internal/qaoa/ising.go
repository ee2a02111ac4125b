package qaoa

import "qaoaml/internal/problem"

// buildIsingTables materializes the Score diagonal and the phase
// generator gen(z) = −sense·(Σ h_i s_i + Σ J_ij s_i s_j) of a small
// instance for z < dim: 2^N, or 2^(N−1) for the lower half a half
// register evolves. Instances with integral doubled coefficients accumulate
// the doubled sum T(z) = Σ(2J)ss + Σ(2h)s in int64 and recover both
// tables by exact halving — the same arithmetic the streaming kernel
// uses, which is what makes materialized and streamed evaluation
// bit-identical (for an integer-weighted MaxCut, T = 2C − m gives
// gen = (m−2C)/2 and Score = C exactly).
func buildIsingTables(in *problem.Instance, dim int) (diag, gen []float64) {
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

// newIsingKernel picks the evaluation engine for an instance by size:
// materialized tables with memoized phase factors below
// StreamingThreshold, chunk-streamed generation from it. half builds it
// over the lower half of the basis states, for a half register; the
// instance must then be FieldFree.
func newIsingKernel(in *problem.Instance, half bool) costKernel {
	if in.N < StreamingThreshold {
		return newMaterializedKernel(in, half)
	}
	return newIsingStreamKernel(in, half)
}

// newMaterializedKernel builds the table kernel of an instance of any
// size — what newIsingKernel selects for a small one, and the tests'
// reference for the streaming kernel.
func newMaterializedKernel(in *problem.Instance, half bool) *diagKernel {
	n := in.N
	if half {
		n--
	}
	diag, gen := buildIsingTables(in, 1<<uint(n))
	k := newDiagKernelFromGen(n, diag, gen)
	k.half = half
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

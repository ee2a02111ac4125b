package qaoa

// GridSearchP1 scans a uniform (γ, β) grid over the paper's depth-1
// domain [0, 2π] × [0, π] and returns the best parameters and
// expectation. It costs steps² circuit evaluations and is useful as a
// deterministic baseline against the local optimizers, and for seeding
// them on instances with many shallow local optima. It panics for
// steps < 2.
func GridSearchP1(pb *Problem, steps int) (Params, float64) {
	if steps < 2 {
		panic("qaoa: grid search needs steps >= 2")
	}
	w := newWorkspace(pb.kernel(), nil)
	best := Params{Gamma: []float64{0}, Beta: []float64{0}}
	bestE := w.expectation(best.Gamma, best.Beta)
	pr := NewParams(1)
	for i := 0; i <= steps; i++ {
		pr.Gamma[0] = GammaMax * float64(i) / float64(steps)
		for j := 0; j <= steps; j++ {
			pr.Beta[0] = BetaMax * float64(j) / float64(steps)
			if e := w.expectation(pr.Gamma, pr.Beta); e > bestE {
				bestE = e
				best = Params{
					Gamma: []float64{pr.Gamma[0]},
					Beta:  []float64{pr.Beta[0]},
				}
			}
		}
	}
	return best, bestE
}

package main

import (
	"math"

	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
	"qaoaml/internal/server"
)

// Output verification runs after each timed section; every output that
// fails a check counts into fail_share.

func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// verifyAR recomputes the approximation ratio of params from scratch —
// a fresh Problem for ⟨Score⟩, the compiled instance's BruteForce for
// the extremes — and compares it with the reported one.
func verifyAR(spec problem.Spec, params qaoa.Params, ar float64) bool {
	if params.Validate(true) != nil || math.IsNaN(ar) || ar < -1e-9 || ar > 1+1e-9 {
		return false
	}
	in, err := spec.Compile()
	if err != nil {
		return false
	}
	pb, err := qaoa.New(spec)
	if err != nil {
		return false
	}
	e := pb.Expectation(params)
	opt, worst, _ := in.BruteForce()
	sign := in.Sense.Sign()
	best, floor := sign*opt, sign*worst
	if spec.Family == problem.FamilyMaxCut {
		floor = 0 // the paper's convention: ⟨C⟩ / C_opt
	}
	return near((e-floor)/(best-floor), ar)
}

// verifyResult checks one served result against the spec that was
// sent: fingerprint, the assignment re-scored on the compiled instance,
// and the recomputed AR.
func verifyResult(spec problem.Spec, fp string, res *server.SolveResult) bool {
	if res == nil || res.Fingerprint != fp || len(res.Gamma) != len(res.Beta) {
		return false
	}
	in, err := spec.Compile()
	if err != nil || len(res.Assignment) != in.Vars {
		return false
	}
	var z uint64
	for i, c := range res.Assignment {
		switch c {
		case '1':
			z |= 1 << uint(i)
		case '0':
		default:
			return false
		}
	}
	// Every family in the mixes has Vars == N (no auxiliaries), so the
	// masked assignment is the full register.
	if !near(in.Score(z), res.Objective) {
		return false
	}
	return verifyAR(spec, qaoa.Params{Gamma: res.Gamma, Beta: res.Beta}, res.AR)
}

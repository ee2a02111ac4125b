package optimize_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"qaoaml/internal/graph"
	"qaoaml/internal/optimize"
	"qaoaml/internal/qaoa"
)

// TestRunBitsUnchanged pins every optimizer's answer on one seeded n = 8,
// p = 2 MaxCut with the adjoint gradient (the path core takes), and the
// derivative-free ones' also without Grad, which they ignore:
// Float64bits of X and F, NFev and NGev. The values were recorded before
// the finite-difference batch path, the Minimize wrappers and the
// test-only optimizer settings were deleted.
func TestRunBitsUnchanged(t *testing.T) {
	recorded := []struct {
		name       string
		adjoint    bool
		bits       string // X[0..3] then F
		nfev, ngev int
	}{
		{"lbfgsb", true, "4016554a903f03b3 400bea27d036a80b 400637cfe4c9dbd3 4004722ddb865694 c020f034b05a46e5", 12, 10},
		{"neldermead", true, "4016271964bb0f92 400cb6d3fac7186b 400662e786c559b3 400103bd1f6507bf c021090e332107dd", 292, 0},
		{"neldermead", false, "4016271964bb0f92 400cb6d3fac7186b 400662e786c559b3 400103bd1f6507bf c021090e332107dd", 292, 0},
		{"slsqp", true, "4016d9ec39525c46 4009d27b029312ee 4006246b29e27826 40088672fb9362f4 c02132cfd7037fd0", 20, 14},
		{"cobyla", true, "40161b56352a3fd0 400cb3f4b10a0f79 400666bdf19c26ed 40015ae74a0e352f c02108e8edf52512", 376, 0},
		{"cobyla", false, "40161b56352a3fd0 400cb3f4b10a0f79 400666bdf19c26ed 40015ae74a0e352f c02108e8edf52512", 376, 0},
	}
	pb, err := qaoa.NewProblem(graph.ErdosRenyiConnected(8, 0.5, rand.New(rand.NewSource(26))))
	if err != nil {
		t.Fatal(err)
	}
	const p = 2
	bounds := optimize.NewBounds([]float64{0, 0, 0, 0}, []float64{qaoa.GammaMax, qaoa.GammaMax, qaoa.BetaMax, qaoa.BetaMax})
	x0 := bounds.Random(rand.New(rand.NewSource(3)))
	for _, want := range recorded {
		opt, _ := optimize.ByName(want.name, 1e-6)
		ev := qaoa.NewEvaluator(pb, p)
		prob := optimize.Problem{F: ev.NegExpectation, X0: x0, Bounds: bounds}
		if want.adjoint {
			prob.Grad = ev.NegGrad
		}
		r := optimize.Run(context.Background(), prob, optimize.Options{Optimizer: opt})
		ev.Release()
		var bits []string
		for _, v := range append(append([]float64(nil), r.X...), r.F) {
			bits = append(bits, fmt.Sprintf("%016x", math.Float64bits(v)))
		}
		if got := strings.Join(bits, " "); got != want.bits || r.NFev != want.nfev || r.NGev != want.ngev {
			t.Errorf("%s adjoint=%v:\n got  %s NFev=%d NGev=%d\n want %s NFev=%d NGev=%d",
				want.name, want.adjoint, got, r.NFev, r.NGev, want.bits, want.nfev, want.ngev)
		}
	}
}

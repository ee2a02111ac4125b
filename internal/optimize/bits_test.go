package optimize_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"qaoaml/internal/graph"
	"qaoaml/internal/optimize"
	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
)

// TestRunBitsUnchanged pins every optimizer's answer on one seeded n = 8,
// p = 2 MaxCut with the adjoint gradient (the path core takes), and the
// derivative-free ones' also without Grad, which they ignore:
// Float64bits of X and F, NFev, NGev, Iters, Status and Message. The
// bits and counts were recorded before the finite-difference batch path,
// the Minimize wrappers and the test-only optimizer settings were
// deleted; Iters, Status and Message before the two gradient methods'
// loops became one.
func TestRunBitsUnchanged(t *testing.T) {
	recorded := []struct {
		name       string
		adjoint    bool
		bits       string // X[0..3] then F
		nfev, ngev int
		iters      int
		status     optimize.Status
		msg        string
	}{
		{"lbfgsb", true, "4016554a903f03b3 400bea27d036a80b 400637cfe4c9dbd3 4004722ddb865694 c020f034b05a46e5", 12, 10, 9, optimize.Converged, "function change below tolerance"},
		{"neldermead", true, "4016271964bb0f92 400cb6d3fac7186b 400662e786c559b3 400103bd1f6507bf c021090e332107dd", 292, 0, 168, optimize.Converged, "simplex spread below tolerance"},
		{"neldermead", false, "4016271964bb0f92 400cb6d3fac7186b 400662e786c559b3 400103bd1f6507bf c021090e332107dd", 292, 0, 168, optimize.Converged, "simplex spread below tolerance"},
		{"slsqp", true, "4016d9ec39525c46 4009d27b029312ee 4006246b29e27826 40088672fb9362f4 c02132cfd7037fd0", 20, 14, 13, optimize.Converged, "function change below tolerance"},
		{"cobyla", true, "40161b56352a3fd0 400cb3f4b10a0f79 400666bdf19c26ed 40015ae74a0e352f c02108e8edf52512", 376, 0, 286, optimize.Converged, "function change below tolerance"},
		{"cobyla", false, "40161b56352a3fd0 400cb3f4b10a0f79 400666bdf19c26ed 40015ae74a0e352f c02108e8edf52512", 376, 0, 286, optimize.Converged, "function change below tolerance"},
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
		if got := resultBits(r); got != want.bits || r.NFev != want.nfev || r.NGev != want.ngev ||
			r.Iters != want.iters || r.Status != want.status || r.Message != want.msg {
			t.Errorf("%s adjoint=%v:\n got  %s NFev=%d NGev=%d Iters=%d Status=%d %q\n want %s NFev=%d NGev=%d Iters=%d Status=%d %q",
				want.name, want.adjoint, got, r.NFev, r.NGev, r.Iters, r.Status, r.Message,
				want.bits, want.nfev, want.ngev, want.iters, want.status, want.msg)
		}
	}
}

// resultBits is Float64bits of r.X then r.F, in hex.
func resultBits(r optimize.Result) string {
	var bits []string
	for _, v := range append(append([]float64(nil), r.X...), r.F) {
		bits = append(bits, fmt.Sprintf("%016x", math.Float64bits(v)))
	}
	return strings.Join(bits, " ")
}

// gradientRun is one recorded run of a gradient method.
type gradientRun struct {
	Key     string `json:"key"`  // problem/depth/method/start
	Bits    string `json:"bits"` // resultBits
	NFev    int    `json:"nfev"`
	NGev    int    `json:"ngev"`
	Iters   int    `json:"iters"`
	Status  int    `json:"status"`
	Message string `json:"message"`
}

// gradientRuns runs L-BFGS-B and SLSQP with the adjoint gradient from 32
// seeded starts at p = 2 and p = 3 on three n = 8 problems: an
// Erdős–Rényi MaxCut, a RandomIsing QUBO (with fields) and a weighted
// MaxCut.
func gradientRuns(t *testing.T) []gradientRun {
	t.Helper()
	ising, err := qaoa.NewIsing(problem.RandomIsing(8, rand.New(rand.NewSource(64))))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(65))
	weighted := graph.New(8)
	for _, e := range graph.ErdosRenyiConnected(8, 0.5, rng).Edges() {
		if err := weighted.AddWeightedEdge(e.U, e.V, 0.25+1.5*rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	var pbs []*qaoa.Problem
	for _, g := range []*graph.Graph{graph.ErdosRenyiConnected(8, 0.5, rand.New(rand.NewSource(63))), weighted} {
		pb, err := qaoa.NewProblem(g)
		if err != nil {
			t.Fatal(err)
		}
		pbs = append(pbs, pb)
	}
	pbs = []*qaoa.Problem{pbs[0], ising, pbs[1]}
	var runs []gradientRun
	for i, name := range []string{"maxcut", "ising", "weighted"} {
		for p := 2; p <= 3; p++ {
			lo, hi := make([]float64, 2*p), make([]float64, 2*p)
			for j := 0; j < p; j++ {
				hi[j], hi[p+j] = qaoa.GammaMax, qaoa.BetaMax
			}
			bounds := optimize.NewBounds(lo, hi)
			for _, method := range []string{"lbfgsb", "slsqp"} {
				opt, _ := optimize.ByName(method, 1e-6)
				for s := 0; s < 32; s++ {
					ev := qaoa.NewEvaluator(pbs[i], p)
					r := optimize.Run(context.Background(), optimize.Problem{
						F: ev.NegExpectation, Grad: ev.NegGrad, Bounds: bounds,
						X0: bounds.Random(rand.New(rand.NewSource(int64(s)))),
					}, optimize.Options{Optimizer: opt})
					ev.Release()
					runs = append(runs, gradientRun{
						Key:  fmt.Sprintf("%s/p%d/%s/%d", name, p, method, s),
						Bits: resultBits(r), NFev: r.NFev, NGev: r.NGev,
						Iters: r.Iters, Status: int(r.Status), Message: r.Message,
					})
				}
			}
		}
	}
	return runs
}

// TestGradientMethodsBitsUnchanged holds L-BFGS-B and SLSQP to
// testdata/gradient_bits.json, recorded before their two loops became
// one: every run's X and F bits, NFev, NGev, Iters, Status and Message.
// Some runs stall on the β = 0 face after their first step; the file
// records that behaviour as it is.
func TestGradientMethodsBitsUnchanged(t *testing.T) {
	raw, err := os.ReadFile("testdata/gradient_bits.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []gradientRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := gradientRuns(t)
	if len(got) != len(want) {
		t.Fatalf("%d runs, %d recorded", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("\n got  %+v\n want %+v", got[i], want[i])
		}
	}
}

package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"qaoaml/internal/core"
	"qaoaml/internal/graph"
	"qaoaml/internal/optimize"
	"qaoaml/internal/qaoa"
	"qaoaml/internal/stats"
)

// regularProblems builds the paper's Fig. 1(c)/Fig. 2 workload: random
// 3-regular 8-node graphs.
func regularProblems(count int, seed int64) []*qaoa.Problem {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*qaoa.Problem, count)
	for i := range out {
		pb, err := qaoa.NewProblem(graph.RandomRegular(8, 3, rng))
		if err != nil {
			panic("experiments: 3-regular graph rejected: " + err.Error())
		}
		out[i] = pb
	}
	return out
}

// Fig1cPoint is one (depth) cell of Fig. 1(c): the distribution of
// approximation ratios and QC calls over graphs × random inits.
type Fig1cPoint struct {
	Depth           int
	MeanAR, SDAR    float64
	MeanFC, SDFC    float64
	BestAR, WorstAR float64
}

// Fig1cResult reproduces Fig. 1(c): AR and run-time (QC calls)
// distributions for QAOA MaxCut on four 3-regular 8-node graphs with
// varying depth p, 20 random initializations each, L-BFGS-B.
type Fig1cResult struct {
	Graphs int
	Inits  int
	Points []Fig1cPoint
}

// RunFig1c executes the Fig. 1(c) experiment. maxDepth is the largest
// circuit depth (paper: 5); inits the random initializations (paper: 20).
func RunFig1c(maxDepth, inits int, seed int64) Fig1cResult {
	problems := regularProblems(4, seed)
	opt := &optimize.LBFGSB{Tol: 1e-6}
	res := Fig1cResult{Graphs: len(problems), Inits: inits}
	for p := 1; p <= maxDepth; p++ {
		var ars, fcs []float64
		for gi, pb := range problems {
			rng := rand.New(rand.NewSource(seed + int64(gi)*131 + int64(p)))
			for k := 0; k < inits; k++ {
				r := solve(pb, core.Options{Depth: p, Optimizer: opt, Rng: rng})
				ars = append(ars, r.AR)
				fcs = append(fcs, float64(r.NFev))
			}
		}
		res.Points = append(res.Points, Fig1cPoint{
			Depth:  p,
			MeanAR: stats.Mean(ars), SDAR: stats.StdDev(ars),
			MeanFC: stats.Mean(fcs), SDFC: stats.StdDev(fcs),
			BestAR: stats.Max(ars), WorstAR: stats.Min(ars),
		})
	}
	return res
}

// String renders the Fig. 1(c) series.
func (f Fig1cResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 1(c): AR and QC-call distributions vs depth (%d 3-regular graphs, %d inits)\n", f.Graphs, f.Inits)
	var rows [][]string
	for _, pt := range f.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", pt.Depth),
			fmt.Sprintf("%.4f", pt.MeanAR), fmt.Sprintf("%.4f", pt.SDAR),
			fmt.Sprintf("%.4f", pt.BestAR), fmt.Sprintf("%.4f", pt.WorstAR),
			fmt.Sprintf("%.1f", pt.MeanFC), fmt.Sprintf("%.1f", pt.SDFC),
		})
	}
	b.WriteString(renderTable([]string{"p", "mean AR", "SD", "best", "worst", "mean FC", "SD"}, rows))
	return b.String()
}

// StageParams is one graph's optimal schedule at a fixed depth.
type StageParams struct {
	GraphID int
	Depth   int
	Gamma   []float64
	Beta    []float64
	AR      float64
}

// Fig2Result reproduces Fig. 2: within-depth patterns of the optimal
// stage parameters for four 3-regular graphs at p = 3 and p = 5
// (γi increases between stages, βi decreases).
type Fig2Result struct {
	Depths    []int
	Schedules []StageParams
}

// interpChain is core.InterpChain, the dataset's depth chain, with its
// L-BFGS-B at tolerance 1e-6, for the figure sweeps, which nothing
// cancels. Element d−1 is the depth-d result.
func interpChain(pb *qaoa.Problem, maxDepth, starts int, rng *rand.Rand) []core.Result {
	chain, err := core.InterpChain(context.Background(), pb, maxDepth, core.Options{
		Optimizer: &optimize.LBFGSB{Tol: 1e-6}, Rng: rng, Starts: starts,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return chain
}

// RunFig2 executes the Fig. 2 experiment with the given multistart
// count per instance (paper: 20 random initializations).
func RunFig2(starts int, seed int64) Fig2Result {
	problems := regularProblems(4, seed)
	res := Fig2Result{Depths: []int{3, 5}}
	for gi, pb := range problems {
		rng := rand.New(rand.NewSource(seed + int64(gi)*977))
		byDepth := interpChain(pb, 5, starts, rng)
		for _, d := range res.Depths {
			rec := byDepth[d-1]
			res.Schedules = append(res.Schedules, StageParams{
				GraphID: gi, Depth: d,
				Gamma: rec.Params.Gamma, Beta: rec.Params.Beta, AR: rec.AR,
			})
		}
	}
	return res
}

// String renders the Fig. 2 schedules.
func (f Fig2Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 2: optimal stage parameters within fixed depth (4 3-regular graphs)\n")
	var rows [][]string
	for _, s := range f.Schedules {
		rows = append(rows, []string{
			fmt.Sprintf("G%d", s.GraphID+1),
			fmt.Sprintf("%d", s.Depth),
			fmtSlice(s.Gamma),
			fmtSlice(s.Beta),
			fmt.Sprintf("%.4f", s.AR),
		})
	}
	b.WriteString(renderTable([]string{"graph", "p", "γ1..γp", "β1..βp", "AR"}, rows))
	return b.String()
}

// Fig3Result reproduces Fig. 3: how each stage's optimal γi and βi move
// as the circuit depth grows from 1 to maxDepth on a single 3-regular
// graph (γi decreases with p, βi increases with p).
type Fig3Result struct {
	// GammaByDepth[d-1] is the optimal γ schedule at depth d; same for
	// BetaByDepth.
	GammaByDepth [][]float64
	BetaByDepth  [][]float64
	ARByDepth    []float64
}

// RunFig3 executes the Fig. 3 experiment.
func RunFig3(maxDepth, starts int, seed int64) Fig3Result {
	pb := regularProblems(1, seed)[0]
	rng := rand.New(rand.NewSource(seed + 5))
	var res Fig3Result
	for _, rec := range interpChain(pb, maxDepth, starts, rng) {
		res.GammaByDepth = append(res.GammaByDepth, rec.Params.Gamma)
		res.BetaByDepth = append(res.BetaByDepth, rec.Params.Beta)
		res.ARByDepth = append(res.ARByDepth, rec.AR)
	}
	return res
}

// String renders the Fig. 3 trends.
func (f Fig3Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 3: optimal γi/βi vs circuit depth (single 3-regular graph)\n")
	var rows [][]string
	for d := range f.GammaByDepth {
		rows = append(rows, []string{
			fmt.Sprintf("%d", d+1),
			fmtSlice(f.GammaByDepth[d]),
			fmtSlice(f.BetaByDepth[d]),
			fmt.Sprintf("%.4f", f.ARByDepth[d]),
		})
	}
	b.WriteString(renderTable([]string{"p", "γ schedule", "β schedule", "AR"}, rows))
	return b.String()
}

func fmtSlice(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

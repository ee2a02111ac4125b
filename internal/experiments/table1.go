package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"sync"

	"qaoaml/internal/core"
	"qaoaml/internal/optimize"
	"qaoaml/internal/qaoa"
	"qaoaml/internal/stats"
)

// An arm is one way to solve a test graph. The runner hands it the
// cell's depth and optimizer, the predictor and a freshly seeded rng.
type arm struct {
	name  string
	solve func(*qaoa.Problem, core.Options) (core.Result, error)
}

// The two arms of the paper's Table I.
var (
	naiveArm = arm{"naive", func(pb *qaoa.Problem, o core.Options) (core.Result, error) {
		return core.Solve(context.Background(), pb, o)
	}}
	twoLevelArm = arm{"2-level", func(pb *qaoa.Problem, o core.Options) (core.Result, error) {
		o.Strategy = core.StrategyTwoLevel
		return core.Solve(context.Background(), pb, o)
	}}
)

// cell is one (optimizer, target depth) row of an arm table.
type cell struct {
	opt   optimize.Optimizer
	depth int
}

// runSeed seeds one run: FNV-64a of (scale seed, graph, depth,
// optimizer, rep), shifted right by one to fit an int64 source. The arm
// is not an input, so every arm of a run draws the same starts, and
// adding or removing an arm moves no other arm's draws.
func runSeed(seed int64, graph, depth int, opt string, rep int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%d/%s/%d", seed, graph, depth, opt, rep)
	return int64(h.Sum64() >> 1)
}

// outcome is what a table keeps of one run.
type outcome struct {
	AR   float64
	NFev int
}

// armRuns holds the outcome of every (cell, test graph, rep, arm) run.
type armRuns struct {
	cells        []cell
	arms         []arm
	graphs, reps int
	out          []outcome
}

func (r *armRuns) at(c, k, rep, a int) *outcome {
	return &r.out[((c*r.graphs+k)*r.reps+rep)*len(r.arms)+a]
}

// runArms solves each of the env's test graphs Reps times per cell and
// arm. The graphs fan out at most GOMAXPROCS at a time, and every
// outcome is stored by index, so the result does not depend on
// scheduling.
func runArms(env *Env, cells []cell, arms []arm) (*armRuns, error) {
	ids := env.testSubset()
	r := &armRuns{cells: cells, arms: arms, graphs: len(ids), reps: env.Scale.Reps}
	r.out = make([]outcome, len(cells)*r.graphs*r.reps*len(arms))
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for k, g := range ids {
		wg.Add(1)
		sem <- struct{}{}
		go func(k, g int) {
			defer wg.Done()
			defer func() { <-sem }()
			pb := env.Data.Problems[g]
			for c, cl := range cells {
				for rep := 0; rep < r.reps; rep++ {
					seed := runSeed(env.Scale.Seed, g, cl.depth, cl.opt.Name(), rep)
					for a, am := range arms {
						res, err := am.solve(pb, core.Options{
							Depth: cl.depth, Optimizer: cl.opt, Predictor: env.Predictor,
							Rng: rand.New(rand.NewSource(seed)),
						})
						if err != nil {
							errOnce.Do(func() {
								firstErr = fmt.Errorf("experiments: %s arm, %s p=%d, graph %d: %w", am.name, cl.opt.Name(), cl.depth, g, err)
							})
							return
						}
						*r.at(c, k, rep, a) = outcome{AR: res.AR, NFev: res.NFev}
					}
				}
			}
		}(k, g)
	}
	wg.Wait()
	return r, firstErr
}

// ArmStats is one arm's statistics over a cell's runs.
type ArmStats struct {
	MeanAR, SDAR float64
	MeanFC, SDFC float64
	// FCReductionPct is 100·(1 − MeanFC/first arm's MeanFC); 0 for the
	// first arm.
	FCReductionPct float64
}

// ArmRow is one (optimizer, target depth) cell, its arms in the order of
// ArmTable.Arms.
type ArmRow struct {
	Optimizer string
	Depth     int
	Arms      []ArmStats
}

// ArmTable compares arms cell by cell against the first arm: Table I
// (naive vs two-level) and the hierarchical ablation.
type ArmTable struct {
	Title string
	Arms  []string // arm names; the first is the baseline
	Rows  []ArmRow
	Paper string // what the paper reports, printed under the table
}

// table reduces the runs to per-cell statistics.
func (r *armRuns) table(title string) ArmTable {
	t := ArmTable{Title: title}
	for _, a := range r.arms {
		t.Arms = append(t.Arms, a.name)
	}
	for c, cl := range r.cells {
		row := ArmRow{Optimizer: cl.opt.Name(), Depth: cl.depth}
		for a := range r.arms {
			var ar, fc []float64
			for k := 0; k < r.graphs; k++ {
				for rep := 0; rep < r.reps; rep++ {
					o := r.at(c, k, rep, a)
					ar = append(ar, o.AR)
					fc = append(fc, float64(o.NFev))
				}
			}
			s := ArmStats{
				MeanAR: stats.Mean(ar), SDAR: stats.StdDev(ar),
				MeanFC: stats.Mean(fc), SDFC: stats.StdDev(fc),
			}
			if a > 0 && row.Arms[0].MeanFC > 0 {
				s.FCReductionPct = 100 * (1 - s.MeanFC/row.Arms[0].MeanFC)
			}
			row.Arms = append(row.Arms, s)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// FCReduction returns the mean and the maximum over rows of arm a's FC
// reduction against the first arm (paper, two-level: 44.9 % and 65.7 %).
func (t ArmTable) FCReduction(a int) (avg, max float64) {
	if len(t.Rows) == 0 {
		return 0, 0
	}
	max = t.Rows[0].Arms[a].FCReductionPct
	for _, r := range t.Rows {
		v := r.Arms[a].FCReductionPct
		avg += v
		if v > max {
			max = v
		}
	}
	return avg / float64(len(t.Rows)), max
}

// RunTable1 reproduces Table I: for every local optimizer and target
// depth 2..MaxTarget it solves each test graph Reps times with random
// initialization (naive) and with the two-level flow, reporting
// mean/SD of approximation ratio and function calls. FC counts are raw
// QC-call counts (the paper reports normalized values; the reduction
// percentages are directly comparable).
func RunTable1(env *Env) ArmTable {
	var cells []cell
	for _, opt := range Optimizers() {
		for pt := 2; pt <= env.Scale.MaxTarget; pt++ {
			cells = append(cells, cell{opt, pt})
		}
	}
	runs, err := runArms(env, cells, []arm{naiveArm, twoLevelArm})
	if err != nil {
		panic(err) // neither arm fails on a trained Env
	}
	t := runs.table("Table I: run-time comparison, naive random initialization vs two-level approach")
	t.Paper = "paper: average FC reduction 44.9%, max 65.7%"
	return t
}

// String renders the table in the layout of the paper's Table I: the
// first arm's AR and FC with their SDs, then each later arm's and its FC
// reduction.
func (t ArmTable) String() string {
	header := []string{"Optimizer", "p"}
	for a, name := range t.Arms {
		header = append(header, "AR("+name+")", "SD", "FC("+name+")", "SD")
		if a > 0 {
			header = append(header, "FC red. %")
		}
	}
	var rows [][]string
	for _, r := range t.Rows {
		row := []string{r.Optimizer, fmt.Sprintf("%d", r.Depth)}
		for a, s := range r.Arms {
			row = append(row,
				fmt.Sprintf("%.4f", s.MeanAR), fmt.Sprintf("%.4f", s.SDAR),
				fmt.Sprintf("%.1f", s.MeanFC), fmt.Sprintf("%.1f", s.SDFC))
			if a > 0 {
				row = append(row, fmt.Sprintf("%.1f", s.FCReductionPct))
			}
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	b.WriteString(t.Title + "\n")
	b.WriteString(renderTable(header, rows))
	for a := 1; a < len(t.Arms); a++ {
		avg, max := t.FCReduction(a)
		fmt.Fprintf(&b, "average FC reduction (%s): %.1f%%, max: %.1f%%\n", t.Arms[a], avg, max)
	}
	if t.Paper != "" {
		b.WriteString(t.Paper + "\n")
	}
	return b.String()
}

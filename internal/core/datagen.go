package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"qaoaml/internal/graph"
	"qaoaml/internal/optimize"
	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
	"qaoaml/internal/telemetry"
)

// DataGenConfig describes the paper's dataset generation recipe
// (Sec. III-A): Erdős–Rényi graphs, depths 1..MaxDepth, multistart
// L-BFGS-B at tolerance 1e-6 restricted to β ∈ [0, π], γ ∈ [0, 2π].
type DataGenConfig struct {
	NumGraphs int                // graphs to draw (paper: 330)
	Nodes     int                // vertices per graph (paper: 8)
	EdgeProb  float64            // Erdős–Rényi edge probability (paper: 0.5)
	MaxDepth  int                // optimize depths 1..MaxDepth (paper: 6)
	Starts    int                // random multistarts per (graph, depth) (paper: 20)
	Tol       float64            // functional tolerance (paper: 1e-6)
	Seed      int64              // RNG seed for graphs and starts
	Workers   int                // parallel workers (default GOMAXPROCS)
	Optimizer optimize.Optimizer // default L-BFGS-B
	// Family selects the problem ensemble: problem.FamilyMaxCut (the
	// default, the paper's Erdős–Rényi MaxCut recipe, byte-identical to
	// the pre-family generator) or any other problem family, drawn by
	// problem.RandomSpec at roughly Nodes qubits per instance.
	Family string
	// Recorder receives datagen telemetry: graph/record counters, the
	// per-depth FC histograms "datagen.fc.p<d>", per-graph wall-time
	// observations and the overall "datagen.generate" span, plus the
	// per-iteration optimizer traces of every run. Shared across all
	// workers, so the sink must be thread-safe (default telemetry.Nop).
	Recorder telemetry.Recorder
}

func (c *DataGenConfig) fillDefaults() error {
	if c.NumGraphs < 1 {
		return fmt.Errorf("core: NumGraphs %d < 1", c.NumGraphs)
	}
	if c.Nodes < 2 {
		return fmt.Errorf("core: Nodes %d < 2", c.Nodes)
	}
	if c.EdgeProb <= 0 || c.EdgeProb > 1 {
		return fmt.Errorf("core: EdgeProb %v out of (0,1]", c.EdgeProb)
	}
	if c.MaxDepth < 1 {
		return fmt.Errorf("core: MaxDepth %d < 1", c.MaxDepth)
	}
	if c.Starts < 1 {
		return fmt.Errorf("core: Starts %d < 1", c.Starts)
	}
	if c.Tol <= 0 {
		c.Tol = 1e-6
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Optimizer == nil {
		c.Optimizer = &optimize.LBFGSB{Tol: c.Tol}
	}
	if c.Family == "" {
		c.Family = problem.FamilyMaxCut
	}
	known := false
	for _, f := range problem.Families() {
		if f == c.Family {
			known = true
		}
	}
	if !known {
		return fmt.Errorf("core: unknown problem family %q (want one of %v)", c.Family, problem.Families())
	}
	if c.Family != problem.FamilyMaxCut && c.Nodes < 4 {
		return fmt.Errorf("core: family %q needs Nodes >= 4, got %d", c.Family, c.Nodes)
	}
	c.Recorder = telemetry.OrNop(c.Recorder)
	return nil
}

// Record is one dataset row: the best parameters found for one
// (graph, depth) pair, with the cost of finding them.
type Record struct {
	GraphID int
	Depth   int
	Params  qaoa.Params // best over all starts
	NegF    float64     // objective at the optimum (−⟨C⟩)
	AR      float64     // approximation ratio at the optimum
	NFev    int         // total QC calls across all starts
	MeanFev float64     // mean QC calls per start
}

// Data is the generated optimal-parameter dataset.
type Data struct {
	Config   DataGenConfig
	Problems []*qaoa.Problem // indexed by graph id
	// Records[g][d-1] is the record for graph g at depth d.
	Records [][]Record
}

// Record returns the record for graph g at depth d (1-based depth).
func (d *Data) Record(g, depth int) Record { return d.Records[g][depth-1] }

// NumParams returns the total count of optimal scalar parameters in the
// dataset (the paper quotes 13,860 = 330 graphs · Σ_{p=1..6} 2p).
func (d *Data) NumParams() int {
	total := 0
	for _, recs := range d.Records {
		for _, r := range recs {
			total += 2 * r.Depth
		}
	}
	return total
}

// ParamBounds returns the paper's optimization domain for depth p:
// γi ∈ [0, 2π] then βi ∈ [0, π] in flat-vector order.
func ParamBounds(p int) *optimize.Bounds {
	lo := make([]float64, 2*p)
	hi := make([]float64, 2*p)
	for i := 0; i < p; i++ {
		hi[i] = qaoa.GammaMax
		hi[p+i] = qaoa.BetaMax
	}
	return optimize.NewBounds(lo, hi)
}

// Generate is GenerateCtx on a background context.
//
// Deprecated: pinned by benchmark/ (ROADMAP item 1); call GenerateCtx.
func Generate(cfg DataGenConfig) (*Data, error) {
	return GenerateCtx(context.Background(), cfg)
}

// GenerateCtx produces the dataset: NumGraphs Erdős–Rényi graphs, each
// optimized at depths 1..MaxDepth from Starts random initializations.
// Graph sampling is deterministic in Seed; per-graph optimization runs
// use independent seeded RNGs so results are reproducible regardless of
// worker scheduling. The context is threaded into every optimizer run,
// so a cancel or deadline takes effect within one optimizer step. On
// cancellation it returns the partial dataset — Records[g] holds the
// fully completed depths of graph g (possibly empty) — together with
// ctx.Err(), so long sweeps can checkpoint what they have. A nil error
// means the dataset is complete.
func GenerateCtx(ctx context.Context, cfg DataGenConfig) (*Data, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	endSpan := cfg.Recorder.Span("datagen.generate")
	defer endSpan()
	graphRNG := rand.New(rand.NewSource(cfg.Seed))
	problems := make([]*qaoa.Problem, cfg.NumGraphs)
	for g := 0; g < cfg.NumGraphs; g++ {
		// The MaxCut branch keeps the exact pre-family call sequence
		// (ErdosRenyiConnected with EdgeProb, then NewProblem), so legacy
		// configurations reproduce their datasets byte for byte; other
		// families draw from the per-family ensemble generators.
		var pb *qaoa.Problem
		var err error
		if cfg.Family == problem.FamilyMaxCut {
			gr := graph.ErdosRenyiConnected(cfg.Nodes, cfg.EdgeProb, graphRNG)
			pb, err = qaoa.NewProblem(gr)
		} else {
			var spec problem.Spec
			spec, err = problem.RandomSpec(cfg.Family, cfg.Nodes, graphRNG)
			if err == nil {
				pb, err = qaoa.New(spec)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("core: %s instance %d: %w", cfg.Family, g, err)
		}
		problems[g] = pb
	}

	// Per-depth FC histogram names, precomputed so workers don't format
	// strings while recording.
	fcMetric := make([]string, cfg.MaxDepth+1)
	for d := 1; d <= cfg.MaxDepth; d++ {
		fcMetric[d] = fmt.Sprintf("datagen.fc.p%d", d)
	}

	records := make([][]Record, cfg.NumGraphs)
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Workers)
	for g := 0; g < cfg.NumGraphs; g++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(g int) {
			defer wg.Done()
			defer func() { <-sem }()
			start := time.Now()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(g)*7919 + 13))
			recs := make([]Record, 0, cfg.MaxDepth)
			for depth := 1; depth <= cfg.MaxDepth; depth++ {
				if ctx.Err() != nil {
					break
				}
				// Seed one start with the interpolated previous-depth
				// optimum (Zhou et al. INTERP) so best-of-starts lands in
				// the regular optimum family the paper's trends rely on.
				var seeds []qaoa.Params
				if depth > 1 {
					seeds = append(seeds, qaoa.Interpolate(recs[depth-2].Params))
				}
				res, err := Solve(ctx, problems[g], Options{
					Strategy: StrategyMultiStart, Depth: depth, Optimizer: cfg.Optimizer, Rng: rng,
					Starts: cfg.Starts, Seeds: seeds, Recorder: cfg.Recorder,
				})
				if err != nil {
					break // cancelled mid-depth: drop the partial record
				}
				rec := Record{
					GraphID: g, Depth: depth, Params: res.Params, NegF: res.NegF, AR: res.AR,
					NFev: res.NFev, MeanFev: float64(res.NFev) / float64(cfg.Starts),
				}
				recs = append(recs, rec)
				cfg.Recorder.Count("datagen.records", 1)
				cfg.Recorder.Observe(fcMetric[depth], float64(rec.NFev))
			}
			records[g] = recs
			if len(recs) == cfg.MaxDepth {
				cfg.Recorder.Count("datagen.graphs_done", 1)
				cfg.Recorder.Observe("datagen.graph_ms", float64(time.Since(start).Nanoseconds())/1e6)
			}
		}(g)
	}
	wg.Wait()
	return &Data{Config: cfg, Problems: problems, Records: records}, ctx.Err()
}

// SplitIndices deterministically shuffles graph ids and splits them
// into train/test id sets with the given train fraction (paper: 0.2).
func (d *Data) SplitIndices(trainFrac float64, seed int64) (train, test []int) {
	if trainFrac <= 0 || trainFrac >= 1 {
		panic(fmt.Sprintf("core: train fraction %v out of (0,1)", trainFrac))
	}
	n := len(d.Problems)
	idx := rand.New(rand.NewSource(seed)).Perm(n)
	nTrain := int(float64(n)*trainFrac + 0.5)
	if nTrain < 1 {
		nTrain = 1
	}
	if nTrain > n-1 {
		nTrain = n - 1
	}
	return idx[:nTrain], idx[nTrain:]
}

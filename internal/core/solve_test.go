package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"

	"qaoaml/internal/optimize"
	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
)

// trainedOnHalf trains the two-level predictor on half of testData.
func trainedOnHalf(t *testing.T) (*Data, *Predictor) {
	t.Helper()
	data := testData(t)
	train, _ := data.SplitIndices(0.5, 1)
	pred := NewPredictor(nil)
	if err := pred.Train(data, train); err != nil {
		t.Fatal(err)
	}
	return data, pred
}

// bitsRow is one flow's outcome as exact values: Float64bits of every
// angle, AR and NegF, and the NFev counts.
type bitsRow []uint64

func (b *bitsRow) params(p qaoa.Params) {
	for _, v := range p.Vector() {
		b.f(v)
	}
}
func (b *bitsRow) f(v float64) { *b = append(*b, math.Float64bits(v)) }
func (b *bitsRow) n(v int)     { *b = append(*b, uint64(v)) }
func (b *bitsRow) run(r RunResult) {
	b.params(r.Params)
	b.f(r.AR)
	b.n(r.NFev)
}

// testdata/solve_bits.json was recorded at 75a0449, the last commit with
// five copies of the optimization loop, through the entry points Solve
// replaced: five families × four optimizers × two seeds × {naive
// p = 1, 3; two-level p = 2, 3; multistart of 3 at p = 1 then p = 2
// with the INTERP seed}. (The hierarchical p = 3 rows recorded with them
// live beside the flow, internal/experiments.) One recorded value is not the
// old flow's own: the multistart depth-1 AR is the closed-form ratio
// (computed at 75a0449 from the old flow's angles), which naive and
// two-level have reported at depth 1 since level 1 became closed-form
// and multistart now reports too; the old multistart read it from the
// state vector, ≤ 4.4e-14 relative away on these rows. The portfolio/…
// rows were re-recorded, and only they, when an instance whose float
// phase values are mostly distinct moved from the memoized table to the
// stream kernel's doubled phases (qaoa.newIsingKernel). Every row is
// checked with and without an arena.
func TestSolveBitsUnchanged(t *testing.T) {
	raw, err := os.ReadFile("testdata/solve_bits.json")
	if err != nil {
		t.Fatal(err)
	}
	var recorded []struct {
		Key  string   `json:"key"`
		Vals []string `json:"vals"`
	}
	if err := json.Unmarshal(raw, &recorded); err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	for _, r := range recorded {
		want[r.Key] = r.Vals
	}
	_, pred := trainedOnHalf(t)
	opts := fourOptimizers()
	var names []string
	for name := range opts {
		names = append(names, name)
	}
	sort.Strings(names)

	checked := 0
	check := func(key string, b bitsRow) {
		t.Helper()
		checked++
		got := make([]string, len(b))
		for i, v := range b {
			got[i] = fmt.Sprintf("%016x", v)
		}
		if !reflect.DeepEqual(got, want[key]) {
			t.Errorf("%s:\n got  %v\n want %v", key, got, want[key])
		}
	}
	arena := qaoa.NewArena(0)
	defer arena.Close()
	for i, fam := range []string{problem.FamilyMaxCut, problem.FamilyQUBO, problem.FamilyMaxKSAT, problem.FamilyPartition, problem.FamilyPortfolio} {
		spec, err := problem.RandomSpec(fam, 8, rand.New(rand.NewSource(int64(40+i))))
		if err != nil {
			t.Fatal(err)
		}
		pb, err := qaoa.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			for _, seed := range []int64{1, 7} {
				for _, a := range []*qaoa.Arena{nil, arena} {
					key := func(flow string) string { return fmt.Sprintf("%s/%s/%s/seed%d", fam, name, flow, seed) }
					run := func(o Options) Result {
						o.Optimizer, o.Predictor, o.Arena = opts[name], pred, a
						if o.Rng == nil {
							o.Rng = rand.New(rand.NewSource(seed))
						}
						return solve(t, pb, o)
					}
					for _, p := range []int{1, 3} {
						r := run(Options{Depth: p})
						var b bitsRow
						b.run(RunResult{Params: r.Params, AR: r.AR, NFev: r.NFev})
						check(key(fmt.Sprintf("naive-p%d", p)), b)
					}
					for _, p := range []int{2, 3} {
						r := run(Options{Strategy: StrategyTwoLevel, Depth: p})
						var b bitsRow
						b.run(r.Stages[0])
						b.params(r.Predicted)
						b.run(r.Stages[1])
						b.n(r.NFev)
						check(key(fmt.Sprintf("twolevel-p%d", p)), b)
					}
					{
						rng := rand.New(rand.NewSource(seed))
						r1 := run(Options{Strategy: StrategyMultiStart, Depth: 1, Starts: 3, Rng: rng})
						r2 := run(Options{Strategy: StrategyMultiStart, Depth: 2, Starts: 3, Rng: rng,
							Seeds: []qaoa.Params{qaoa.Interpolate(r1.Params)}})
						var b bitsRow
						for _, r := range []Result{r1, r2} {
							b.params(r.Params)
							b.f(r.NegF)
							b.f(r.AR)
							b.n(r.NFev)
						}
						check(key("multistart"), b)
					}
				}
			}
		}
	}
	if checked != 2*len(want) {
		t.Errorf("checked %d rows, recorded %d", checked, len(want))
	}
}

// Each spelling benchmark/ pins returns exactly what Solve returns.
func TestPinnedForwardsMatchSolve(t *testing.T) {
	_, pred := trainedOnHalf(t)
	spec, err := problem.RandomSpec(problem.FamilyMaxCut, 6, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := qaoa.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opt := &optimize.LBFGSB{Tol: 1e-6}
	rng := func() *rand.Rand { return rand.New(rand.NewSource(3)) }
	arena := qaoa.NewArena(0)
	defer arena.Close()

	naive := solve(t, pb, Options{Depth: 2, Optimizer: opt, Rng: rng()})
	wantNaive := RunResult{Params: naive.Params, AR: naive.AR, NFev: naive.NFev}
	two := solve(t, pb, Options{Strategy: StrategyTwoLevel, Depth: 3, Optimizer: opt, Predictor: pred, Rng: rng()})
	wantTwo := TwoLevelResult{Level1: two.Stages[0], Predicted: two.Predicted, Level2: two.Stages[1], TotalNFev: two.NFev}
	if wantTwo.AR() != two.AR {
		t.Errorf("TwoLevelResult.AR() = %v, Solve reports %v", wantTwo.AR(), two.AR)
	}

	for name, call := range map[string]func() (any, error){
		"NaiveRunArena": func() (any, error) { return NaiveRunArena(ctx, arena, pb, 2, opt, rng(), nil) },
		"NaiveRunSpec":  func() (any, error) { return NaiveRunSpec(ctx, spec, 2, opt, rng(), nil) },
		"TwoLevelArena": func() (any, error) { return TwoLevelArena(ctx, arena, pb, 3, opt, pred, rng(), nil) },
		"TwoLevelCtx":   func() (any, error) { return TwoLevelCtx(ctx, pb, 3, opt, pred, rng(), nil) },
		"TwoLevelSpec":  func() (any, error) { return TwoLevelSpec(ctx, spec, 3, opt, pred, rng(), nil) },
	} {
		got, err := call()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var want any = wantTwo
		if _, isNaive := got.(RunResult); isNaive {
			want = wantNaive
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s = %+v, Solve gives %+v", name, got, want)
		}
	}
	// A cancelled forward still hands over the stages Solve reached.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	part, err := TwoLevelCtx(cancelled, pb, 3, opt, pred, rng(), nil)
	if err != context.Canceled || part.TotalNFev != part.Level1.NFev || part.Level1.Params.Depth() != 1 || part.Level2.NFev != 0 {
		t.Errorf("cancelled TwoLevelCtx = %+v, %v", part, err)
	}
}

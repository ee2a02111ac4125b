package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"qaoaml/internal/telemetry"
)

// testScale is small enough for the full experiment suite to run in a
// few seconds while still exercising every code path.
func testScale() Scale {
	return Scale{
		NumGraphs:  36,
		Nodes:      8,
		MaxDepth:   3,
		Starts:     8,
		TrainFrac:  0.34,
		Reps:       1,
		TestGraphs: 10,
		MaxTarget:  3,
		Seed:       11,
	}
}

var (
	envOnce sync.Once
	envVal  *Env
	envErr  error
)

func sharedEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() { envVal, envErr = NewEnvCtx(context.Background(), testScale(), nil) })
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

func TestScaleValidate(t *testing.T) {
	if err := DefaultScale().Validate(); err != nil {
		t.Errorf("DefaultScale invalid: %v", err)
	}
	if err := PaperScale().Validate(); err != nil {
		t.Errorf("PaperScale invalid: %v", err)
	}
	bad := DefaultScale()
	bad.MaxTarget = 1
	if err := bad.Validate(); err == nil {
		t.Error("MaxTarget < 2 accepted")
	}
	bad2 := DefaultScale()
	bad2.TrainFrac = 1.5
	if err := bad2.Validate(); err == nil {
		t.Error("TrainFrac > 1 accepted")
	}
}

// A generated dataset must reach every target depth: NewEnvCtx refuses
// MaxTarget > MaxDepth before it generates anything.
func TestNewEnvRefusesTargetPastDepth(t *testing.T) {
	s := testScale()
	s.MaxTarget = s.MaxDepth + 1
	mem := telemetry.NewMemory()
	if _, err := NewEnvCtx(context.Background(), s, mem); err == nil || !strings.Contains(err.Error(), "MaxTarget 4 > MaxDepth 3") {
		t.Errorf("MaxTarget > MaxDepth: %v, want refused", err)
	}
	if snap := mem.Snapshot(); len(snap.Counters)+len(snap.Spans) != 0 {
		t.Errorf("refused after generating: counters %v", snap.Counters)
	}
}

func TestNewEnv(t *testing.T) {
	env := sharedEnv(t)
	if len(env.TrainIDs)+len(env.TestIDs) != env.Scale.NumGraphs {
		t.Error("split does not cover all graphs")
	}
	if got := len(env.testSubset()); got != env.Scale.TestGraphs {
		t.Errorf("testSubset = %d, want %d", got, env.Scale.TestGraphs)
	}
	if env.Predictor == nil {
		t.Fatal("predictor not trained")
	}
}

func TestOptimizersAndFactories(t *testing.T) {
	if got := len(Optimizers()); got != 4 {
		t.Errorf("optimizers = %d, want 4", got)
	}
	if got := len(ModelFactories()); got != 4 {
		t.Errorf("model families = %d, want 4", got)
	}
}

func TestRunTable1(t *testing.T) {
	env := sharedEnv(t)
	res := RunTable1(env)
	// 4 optimizers × depths 2..3 = 8 rows.
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(res.Rows))
	}
	positive := 0
	for _, r := range res.Rows {
		naive, two := r.Arms[0], r.Arms[1]
		if naive.MeanFC <= 0 || two.MeanFC <= 0 {
			t.Errorf("%s p=%d: nonpositive FC", r.Optimizer, r.Depth)
		}
		if naive.MeanAR <= 0 || naive.MeanAR > 1+1e-9 || two.MeanAR <= 0 || two.MeanAR > 1+1e-9 {
			t.Errorf("%s p=%d: AR out of range", r.Optimizer, r.Depth)
		}
		if two.FCReductionPct > 0 {
			positive++
		}
	}
	// The effect must show in the clear majority of cells even at this
	// tiny scale.
	if positive < 6 {
		t.Errorf("only %d/8 cells show an FC reduction\n%s", positive, res)
	}
	avg, max := res.FCReduction(1)
	if avg <= 0 {
		t.Errorf("average reduction %.1f%% not positive", avg)
	}
	if max < avg {
		t.Error("max reduction below average")
	}
	s := res.String()
	if !strings.Contains(s, "L-BFGS-B") || !strings.Contains(s, "COBYLA") {
		t.Error("rendering missing optimizers")
	}
}

func TestRunFig1c(t *testing.T) {
	res := RunFig1c(3, 4, 21)
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Performance (mean AR over converged runs) should improve, or at
	// least not collapse, with depth; FC grows with depth.
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.MeanFC <= first.MeanFC {
		t.Errorf("FC did not grow with depth: %v -> %v", first.MeanFC, last.MeanFC)
	}
	if last.BestAR < first.BestAR-1e-9 {
		t.Errorf("best AR degraded with depth: %v -> %v", first.BestAR, last.BestAR)
	}
	for _, p := range res.Points {
		if p.WorstAR > p.MeanAR || p.MeanAR > p.BestAR {
			t.Errorf("p=%d: ordering worst<=mean<=best violated", p.Depth)
		}
	}
	if !strings.Contains(res.String(), "Fig. 1(c)") {
		t.Error("rendering broken")
	}
}

func TestRunFig2Patterns(t *testing.T) {
	res := RunFig2(6, 22)
	if len(res.Schedules) != 8 { // 4 graphs × 2 depths
		t.Fatalf("schedules = %d", len(res.Schedules))
	}
	// The paper's headline pattern: γ increases and β decreases between
	// stages. Count monotone transitions; require a strong majority.
	gammaUp, gammaTotal, betaDown, betaTotal := 0, 0, 0, 0
	for _, s := range res.Schedules {
		for i := 1; i < len(s.Gamma); i++ {
			gammaTotal++
			if s.Gamma[i] >= s.Gamma[i-1]-1e-9 {
				gammaUp++
			}
			betaTotal++
			if s.Beta[i] <= s.Beta[i-1]+1e-9 {
				betaDown++
			}
		}
	}
	if float64(gammaUp) < 0.75*float64(gammaTotal) {
		t.Errorf("γ increasing in only %d/%d transitions\n%s", gammaUp, gammaTotal, res)
	}
	if float64(betaDown) < 0.75*float64(betaTotal) {
		t.Errorf("β decreasing in only %d/%d transitions\n%s", betaDown, betaTotal, res)
	}
}

func TestRunFig3Trends(t *testing.T) {
	res := RunFig3(4, 6, 23)
	if len(res.GammaByDepth) != 4 {
		t.Fatalf("depths = %d", len(res.GammaByDepth))
	}
	// Paper Fig. 3: γ1OPT decreases as depth grows, β1OPT increases...
	// (β1 increases relative to its depth-1 value in the paper's
	// convention; with the π/2-canonical domain we check γ1 decreasing,
	// the robust half of the claim, plus AR non-decreasing.)
	g1First := res.GammaByDepth[0][0]
	g1Last := res.GammaByDepth[len(res.GammaByDepth)-1][0]
	if g1Last > g1First+0.05 {
		t.Errorf("γ1OPT grew with depth: %.3f -> %.3f", g1First, g1Last)
	}
	for d := 1; d < len(res.ARByDepth); d++ {
		if res.ARByDepth[d] < res.ARByDepth[d-1]-0.02 {
			t.Errorf("AR degraded with depth: %v", res.ARByDepth)
		}
	}
	if !strings.Contains(res.String(), "Fig. 3") {
		t.Error("rendering broken")
	}
}

func TestRunFig5Correlations(t *testing.T) {
	env := sharedEnv(t)
	res := RunFig5(env)
	// Sec. III-B: γ1OPT(p=1) and β1OPT(p=1) strongly correlated (0.92).
	if res.RGamma1Beta1 < 0.5 {
		t.Errorf("r(γ1,β1) = %.3f, want strongly positive", res.RGamma1Beta1)
	}
	if len(res.Gamma) == 0 || len(res.Beta) == 0 {
		t.Fatal("no stage correlations")
	}
	for _, rows := range [][]StageCorrelation{res.Gamma, res.Beta} {
		for _, r := range rows {
			for _, v := range []float64{r.WithGamma1, r.WithBeta1, r.WithDepth} {
				if !math.IsNaN(v) && (v < -1-1e-9 || v > 1+1e-9) {
					t.Errorf("correlation out of range: %+v", r)
				}
			}
		}
	}
	// Sec. III-B: γ1OPT response correlates negatively with depth.
	if r := res.Gamma[0].WithDepth; !math.IsNaN(r) && r > 0.2 {
		t.Errorf("r(γ1OPT, p) = %.3f, expected non-positive trend", r)
	}
	if !strings.Contains(res.String(), "paper: 0.92") {
		t.Error("rendering broken")
	}
}

func TestRunFig6Errors(t *testing.T) {
	env := sharedEnv(t)
	res := RunFig6(env)
	if len(res.Points) != 2 { // depths 2..3
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if math.IsNaN(p.MeanPct) || p.MeanPct < 0 {
			t.Errorf("p=%d: bad mean error %v", p.Depth, p.MeanPct)
		}
		if p.MeanPct > 100 {
			t.Errorf("p=%d: error %v%% unusably large", p.Depth, p.MeanPct)
		}
		if p.N == 0 {
			t.Errorf("p=%d: no samples", p.Depth)
		}
	}
	if !strings.Contains(res.String(), "Fig. 6") {
		t.Error("rendering broken")
	}
}

func TestRunModelComparison(t *testing.T) {
	env := sharedEnv(t)
	res, err := RunModelComparison(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != 4 {
		t.Fatalf("scores = %d", len(res.Scores))
	}
	// Ranking must be consistent with the Better ordering.
	for i := 1; i < len(res.Scores); i++ {
		if res.Scores[i].Metrics.Better(res.Scores[i-1].Metrics) {
			t.Errorf("ranking violated at %d:\n%s", i, res)
		}
	}
	// The paper's GPR-wins claim needs the full-scale dataset (66
	// training graphs); at this test scale every family's pooled metrics
	// are held to testdata/model_bits.json (recorded at 96593ed, when LM
	// still tried a Householder QR before its ridge normal equations; the
	// LM row again when pt stopped being a bank input; every row when
	// datagen's L-BFGS-B line search began to backtrack to the
	// interpolated minimum) as Float64bits of MSE, RMSE, MAE, R² and R²adj.
	raw, err := os.ReadFile("testdata/model_bits.json")
	if err != nil {
		t.Fatal(err)
	}
	var recorded []struct {
		Name string   `json:"name"`
		Bits []string `json:"bits"`
	}
	if err := json.Unmarshal(raw, &recorded); err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	for _, r := range recorded {
		want[r.Name] = r.Bits
	}
	for _, s := range res.Scores {
		m := s.Metrics
		var got []string
		for _, v := range []float64{m.MSE, m.RMSE, m.MAE, m.R2, m.R2Adj} {
			got = append(got, fmt.Sprintf("%016x", math.Float64bits(v)))
		}
		if !reflect.DeepEqual(got, want[s.Name]) {
			t.Errorf("%s: metrics %+v\n got  %v\n want %v", s.Name, m, got, want[s.Name])
		}
		delete(want, s.Name)
	}
	if len(want) != 0 {
		t.Errorf("recorded models not scored: %v", want)
	}
	if !strings.Contains(res.String(), "MSE") {
		t.Error("rendering broken")
	}
}

func TestRunHierarchical(t *testing.T) {
	env := sharedEnv(t)
	res, err := RunHierarchical(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 { // depth 3 only at test scale
		t.Fatalf("rows = %d", len(res.Rows))
	}
	r := res.Rows[0]
	if r.Arms[0].MeanFC <= 0 || r.Arms[1].MeanFC <= 0 || r.Arms[2].MeanFC <= 0 {
		t.Errorf("nonpositive FC: %+v", r)
	}
	for _, ar := range []float64{r.Arms[0].MeanAR, r.Arms[1].MeanAR, r.Arms[2].MeanAR} {
		if ar <= 0 || ar > 1+1e-9 {
			t.Errorf("AR out of range: %+v", r)
		}
	}
	if !strings.Contains(res.String(), "hier") {
		t.Error("rendering broken")
	}
}

func TestNewEnvFromData(t *testing.T) {
	env := sharedEnv(t)
	s := testScale()
	s.NumGraphs = 999 // must be overridden by the dataset's true size
	s.MaxTarget = 9   // must be clamped to the dataset's max depth
	env2, err := NewEnvFromData(s, env.Data)
	if err != nil {
		t.Fatal(err)
	}
	if env2.Scale.NumGraphs != len(env.Data.Problems) {
		t.Errorf("NumGraphs = %d", env2.Scale.NumGraphs)
	}
	if env2.Scale.MaxTarget != env.Data.Config.MaxDepth {
		t.Errorf("MaxTarget = %d", env2.Scale.MaxTarget)
	}
	if env2.Predictor == nil {
		t.Error("predictor not trained")
	}
}

func TestCSVRendering(t *testing.T) {
	env := sharedEnv(t)
	hier, err := RunHierarchical(env)
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]string{
		"fig5":   RunFig5(env).CSV(),
		"fig6":   RunFig6(env).CSV(),
		"fig1c":  RunFig1c(2, 2, 1).CSV(),
		"table1": RunTable1(env).CSV(),
		"hier":   hier.CSV(),
	}
	for id, csvText := range checks {
		lines := strings.Split(strings.TrimSpace(csvText), "\n")
		if len(lines) < 2 {
			t.Errorf("%s: CSV has %d lines", id, len(lines))
			continue
		}
		cols := strings.Count(lines[0], ",")
		for i, ln := range lines[1:] {
			if strings.Count(ln, ",") != cols {
				t.Errorf("%s: row %d has wrong column count: %q", id, i+1, ln)
				break
			}
		}
	}
	if CSVName("table1") != "table1.csv" {
		t.Error("CSVName wrong")
	}
}

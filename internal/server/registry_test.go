package server

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"syscall"
	"testing"
	"time"

	"qaoaml/internal/core"
	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
)

// saveTestModel writes the shared predictor into dir under name.json.
func saveTestModel(t *testing.T, dir, name string) {
	t.Helper()
	if err := testPredictor(t).SaveFile(filepath.Join(dir, name+".json")); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryLoadsDirectory(t *testing.T) {
	dir := t.TempDir()
	saveTestModel(t, dir, "default")
	saveTestModel(t, dir, "gpr-8q")

	reg, err := NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := reg.Names()
	if len(names) != 2 || names[0] != "default" || names[1] != "gpr-8q" {
		t.Fatalf("names %v", names)
	}
	pred, ok := reg.Get("default")
	if !ok {
		t.Fatal("default model missing")
	}
	if got, want := pred.TargetDepths(), testPredictor(t).TargetDepths(); len(got) != len(want) {
		t.Fatalf("loaded depths %v, want %v", got, want)
	}
}

func TestRegistryRejectsCorruptDirectory(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRegistry(dir); err == nil {
		t.Fatal("corrupt model dir accepted at startup")
	}
}

// core's testdata/predictor_chol_l.json was saved when every output
// also carried its Cholesky factor. Reload serves it with the bits a
// fresh training of its recipe (6 graphs, depths 1..3, seed 1) predicts,
// and the fresh predictor's own file, which holds no chol_l, reloads to
// the same bits.
func TestRegistryReloadsFileWithCholeskyFactor(t *testing.T) {
	dir := t.TempDir()
	reg, err := NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(filepath.Join("..", "core", "testdata", "predictor_chol_l.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "old.json"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := core.GenerateCtx(context.Background(), core.DataGenConfig{
		NumGraphs: 6, Nodes: 8, EdgeProb: 0.5, MaxDepth: 3, Starts: 2, Tol: 1e-6, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	train, _ := data.SplitIndices(0.8, 1)
	fresh := core.NewPredictor(nil)
	if err := fresh.Train(data, train); err != nil {
		t.Fatal(err)
	}
	if err := fresh.SaveFile(filepath.Join(dir, "new.json")); err != nil {
		t.Fatal(err)
	}
	if saved, err := os.ReadFile(filepath.Join(dir, "new.json")); err != nil || bytes.Contains(saved, []byte(`"chol_l"`)) {
		t.Fatalf("saved predictor holds chol_l (read error %v)", err)
	}
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"old", "new"} {
		pred, ok := reg.Get(name)
		if !ok {
			t.Fatalf("%s.json not loaded", name)
		}
		for depth := 2; depth <= 3; depth++ {
			for i := 0; i <= 8; i++ {
				f := core.Features{Gamma1: float64(i) * qaoa.GammaMax / 8, Beta1: float64(i) * qaoa.BetaMax / 16, TargetDepth: depth}
				got, err := pred.Predict(f)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := fresh.Predict(f)
				for k, v := range want.Vector() {
					if math.Float64bits(got.Vector()[k]) != math.Float64bits(v) {
						t.Fatalf("%s.json at %+v: angle %d is %v, fresh training %v", name, f, k, got.Vector()[k], v)
					}
				}
			}
		}
	}
}

func TestRegistryReload(t *testing.T) {
	dir := t.TempDir()
	saveTestModel(t, dir, "default")
	reg, err := NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}

	// A new model file appears; Reload picks it up.
	saveTestModel(t, dir, "fresh")
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Get("fresh"); !ok {
		t.Fatal("reload did not pick up the new model")
	}
	if reg.Generation() != 1 {
		t.Fatalf("generation %d after one reload", reg.Generation())
	}

	// In-process registrations survive reloads.
	reg.Register("inproc", testPredictor(t))
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Get("inproc"); !ok {
		t.Fatal("reload dropped the in-process model")
	}

	// A corrupt file fails the reload and keeps the previous set serving.
	if err := os.WriteFile(filepath.Join(dir, "broken.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reload(); err == nil {
		t.Fatal("corrupt reload reported success")
	}
	if _, ok := reg.Get("default"); !ok {
		t.Fatal("failed reload dropped the serving models")
	}
	if _, ok := reg.Get("fresh"); !ok {
		t.Fatal("failed reload dropped the serving models")
	}

	// A removed file disappears on the next successful reload.
	if err := os.Remove(filepath.Join(dir, "broken.json")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "fresh.json")); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Get("fresh"); ok {
		t.Fatal("deleted model still registered after reload")
	}
}

func TestRegistryWatchHUP(t *testing.T) {
	dir := t.TempDir()
	saveTestModel(t, dir, "default")
	reg, err := NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg.WatchHUP(ctx, nil)

	saveTestModel(t, dir, "hupped")
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for reg.Generation() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("SIGHUP did not trigger a reload")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, ok := reg.Get("hupped"); !ok {
		t.Fatal("reloaded set missing the new model")
	}
}

// otherEnv is a second trained predictor, on a dataset of another seed:
// the model a reload swaps in.
var otherEnv struct {
	once sync.Once
	pred *core.Predictor
	err  error
}

func otherPredictor(t testing.TB) *core.Predictor {
	t.Helper()
	otherEnv.once.Do(func() {
		data, err := core.GenerateCtx(context.Background(), core.DataGenConfig{
			NumGraphs: 8, Nodes: 8, EdgeProb: 0.5,
			MaxDepth: 3, Starts: 2, Tol: 1e-6, Seed: testTrainSeed + 1,
		})
		if err == nil {
			otherEnv.pred = core.NewPredictor(nil)
			err = otherEnv.pred.Train(data, []int{0, 1, 2, 3, 4})
		}
		otherEnv.err = err
	})
	if otherEnv.err != nil {
		t.Fatal(otherEnv.err)
	}
	return otherEnv.pred
}

// A solve key names a model, not its contents. After the model behind a
// name changes — by Register, or by a reload of its file — a repeat is
// solved again and gets the answer a fresh server on the new model
// gives, not the old model's answer from the cache or the memo; and a
// job that was solving when the model changed fills no cache.
func TestReloadDropsCachedAnswers(t *testing.T) {
	oldPred, newPred := testPredictor(t), otherPredictor(t)
	nodes, edges := testInstance(5)
	req := SolveRequest{Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 3, Wait: true}
	solve := func(t *testing.T, url string, wantCached bool) *SolveResult {
		t.Helper()
		code, view := postSolve(t, url, req)
		if code != http.StatusOK || view.State != StateDone || view.Result == nil {
			t.Fatalf("status %d, state %s (%s)", code, view.State, view.Error)
		}
		if view.Cached != wantCached {
			t.Fatalf("cached = %v, want %v (AR %v)", view.Cached, wantCached, view.Result.AR)
		}
		return view.Result
	}
	reg, err := NewRegistry("")
	if err != nil {
		t.Fatal(err)
	}
	reg.Register("default", newPred)
	_, fresh := newTestServer(t, Config{Workers: 1, Registry: reg})
	want := solve(t, fresh.URL, false)

	// Each case serves oldPred, answers the request twice (the second
	// from the cache), swaps in newPred and asks again.
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T) (*Registry, func())
	}{
		{"register", func(t *testing.T) (*Registry, func()) {
			reg := testRegistry(t)
			return reg, func() { reg.Register("default", newPred) }
		}},
		{"reload", func(t *testing.T) (*Registry, func()) {
			path := filepath.Join(t.TempDir(), "default.json")
			if err := oldPred.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			reg, err := NewRegistry(filepath.Dir(path))
			if err != nil {
				t.Fatal(err)
			}
			return reg, func() {
				if err := newPred.SaveFile(path); err != nil {
					t.Fatal(err)
				}
				if err := reg.Reload(); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg, swap := tc.setup(t)
			_, ts := newTestServer(t, Config{Workers: 1, Registry: reg})
			solve(t, ts.URL, false)
			solve(t, ts.URL, true)
			swap()
			if got := solve(t, ts.URL, false); !reflect.DeepEqual(got, want) {
				t.Errorf("after the swap: AR %v, γ %v; a fresh server on the new model: AR %v, γ %v",
					got.AR, got.Gamma, want.AR, want.Gamma)
			}
			solve(t, ts.URL, true)
		})
	}

	t.Run("in-flight", func(t *testing.T) {
		reg := testRegistry(t)
		s, ts := newTestServer(t, Config{Workers: 1, Registry: reg})
		started, release := make(chan *Job, 1), make(chan struct{})
		blockingSolve(s, started, release)
		queued := req
		queued.Wait = false
		if code, _ := postSolve(t, ts.URL, queued); code != http.StatusAccepted {
			t.Fatalf("status %d, want 202", code)
		}
		job := <-started
		reg.Register("default", newPred)
		close(release)
		<-job.Done()
		if code, view := postSolve(t, ts.URL, req); code != http.StatusOK || view.Cached {
			t.Fatalf("repeat of a job solved across a model swap: status %d, cached %v", code, view.Cached)
		}
	})
}

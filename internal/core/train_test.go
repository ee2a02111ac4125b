package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"strings"
	"testing"

	"qaoaml/internal/ml"
	"qaoaml/internal/qaoa"
)

// qaoadTrainRecipe is `qaoad -train`'s recipe: 16 8-node graphs,
// depths 1..5, two starts, seed 1, an 80 % training split.
func qaoadTrainRecipe(t *testing.T) (*Data, []int) {
	t.Helper()
	data, err := GenerateCtx(context.Background(), DataGenConfig{
		NumGraphs: 16, Nodes: 8, EdgeProb: 0.5,
		MaxDepth: 5, Starts: 2, Tol: 1e-6, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	train, _ := data.SplitIndices(0.8, 1)
	return data, train
}

// The saved predictor and a 17 × 11 × 4 grid of its raw bank outputs
// (γ1 over [0, 2π], β1 over [0, π], depths 2..5) hash to recorded
// digests. The grid's was recorded before GPR banks shared one
// factorization per grid point, and when pt was still a third feature
// (standardized to +0 in every row of its bank): every column selects
// the same hyperparameters and carries the same α bits, and Predict's
// mean is the same sum. The file's was recorded when banks stopped
// taking pt; with it (and a mean and std for it) the file was 30,555
// bytes, and with each output's Cholesky factor as well 90,311.
func TestPredictorTrainBitsUnchanged(t *testing.T) {
	const (
		wantSave = "c92bd7fee7b5cb7549f99925df4a3da39de5d781090864e8cc8b4078f1cdacb2" // 29,715 bytes
		wantGrid = "c1ac4bdece9ecf30cbcbf4053696a63d1dc9214830f00ea04f3998ae098e6140"
	)
	data, train := qaoadTrainRecipe(t)
	pred := NewPredictor(nil)
	if err := pred.Train(data, train); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		t.Fatal(err)
	}
	save := sha256.Sum256(buf.Bytes())

	grid := sha256.New()
	var word [8]byte
	for depth := 2; depth <= 5; depth++ {
		for i := 0; i <= 16; i++ {
			for j := 0; j <= 10; j++ {
				f := Features{Gamma1: float64(i) * qaoa.GammaMax / 16, Beta1: float64(j) * qaoa.BetaMax / 10, TargetDepth: depth}
				for _, v := range pred.banks[depth].Predict(f.Vector()) {
					binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
					grid.Write(word[:])
				}
			}
		}
	}
	if got := hex.EncodeToString(save[:]); got != wantSave {
		t.Errorf("Save digest %s, want %s (%d bytes)", got, wantSave, buf.Len())
	}
	if got := hex.EncodeToString(grid.Sum(nil)); got != wantGrid {
		t.Errorf("prediction grid digest %s, want %s", got, wantGrid)
	}
}

// A dataset whose angles overflow the target mean loads, and training
// then names the targets, not the kernel matrix.
func TestPredictorTrainRejectsOverflowingTargets(t *testing.T) {
	data, _ := trainedPredictor(t)
	train := []int{0, 1, 2, 3, 4}
	bad := *data
	bad.Records = make([][]Record, len(data.Records))
	for g, recs := range data.Records {
		bad.Records[g] = append([]Record(nil), recs...)
	}
	for _, g := range train[1:] { // {1, 1e308, 1e308, …}: the sum overflows
		p := bad.Records[g][1].Params // depth 2: output 1 is γ2
		p.Gamma = append([]float64(nil), p.Gamma...)
		p.Gamma[1] = 1e308
		bad.Records[g][1].Params = p
	}
	err := NewPredictor(nil).Train(&bad, train)
	if !errors.Is(err, ml.ErrBadShape) {
		t.Fatalf("err = %v, want ml.ErrBadShape", err)
	}
	for _, want := range []string{"depth-2 bank", "output 1", "target mean"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err = %q, want it to name %q", err, want)
		}
	}
}

// BenchmarkPredictorTrain trains the default GPR predictor on the
// benchmark's datagen recipe (8-node graphs, depths 1..5, four starts)
// at 64 and 256 training graphs; each dataset is generated once.
func BenchmarkPredictorTrain(b *testing.B) {
	for _, graphs := range []int{64, 256} {
		var data *Data
		ids := make([]int, graphs)
		for i := range ids {
			ids[i] = i
		}
		b.Run(map[int]string{64: "graphs64", 256: "graphs256"}[graphs], func(b *testing.B) {
			if data == nil {
				var err error
				data, err = GenerateCtx(context.Background(), DataGenConfig{
					NumGraphs: graphs, Nodes: 8, EdgeProb: 0.5,
					MaxDepth: 5, Starts: 4, Tol: 1e-6, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := NewPredictor(nil).Train(data, ids); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

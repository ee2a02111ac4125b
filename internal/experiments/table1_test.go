package experiments

import (
	"math"
	"runtime"
	"testing"
)

func statBits(s ArmStats) [5]uint64 {
	return [5]uint64{
		math.Float64bits(s.MeanAR), math.Float64bits(s.SDAR),
		math.Float64bits(s.MeanFC), math.Float64bits(s.SDFC),
		math.Float64bits(s.FCReductionPct),
	}
}

// rowBitsEqual compares two tables' rows, for arms 0..arms-1, bit for bit.
func rowBitsEqual(t *testing.T, what string, got, want []ArmRow, arms int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Optimizer != w.Optimizer || g.Depth != w.Depth {
			t.Fatalf("%s: row %d is %s p=%d, want %s p=%d", what, i, g.Optimizer, g.Depth, w.Optimizer, w.Depth)
		}
		for a := 0; a < arms; a++ {
			if statBits(g.Arms[a]) != statBits(w.Arms[a]) {
				t.Errorf("%s: %s p=%d arm %d: %+v, want %+v", what, g.Optimizer, g.Depth, a, g.Arms[a], w.Arms[a])
			}
		}
	}
}

// runSeed is the whole seed rule of every arm table; a change to it
// moves every recorded table, so it is pinned.
func TestArmRunSeed(t *testing.T) {
	if got, want := runSeed(1, 0, 2, "L-BFGS-B", 0), int64(5339573659643539791); got != want {
		t.Errorf("runSeed(1, 0, 2, L-BFGS-B, 0) = %d, want %d", got, want)
	}
	seen := map[int64]bool{}
	for g := 0; g < 4; g++ {
		for rep := 0; rep < 4; rep++ {
			s := runSeed(11, g, 3, "COBYLA", rep)
			if s < 0 || seen[s] {
				t.Fatalf("runSeed(11, %d, 3, COBYLA, %d) = %d: negative or repeated", g, rep, s)
			}
			seen[s] = true
		}
	}
}

// Dropping an arm leaves every other arm's runs bit-identical: each arm
// draws from its own rng, seeded without the arm. The hierarchical arm
// sits between the other two, so a shared rng would show in either
// order, and the two cells show a stream carried across cells.
func TestArmRemovalLeavesOtherArmsBitIdentical(t *testing.T) {
	env := sharedEnv(t)
	banks, err := trainHier(env.Data, env.TrainIDs)
	if err != nil {
		t.Fatal(err)
	}
	opts := Optimizers()
	cells := []cell{{opts[0], 3}, {opts[1], 3}}
	with, err := runArms(env, cells, []arm{naiveArm, hierArm(banks), twoLevelArm})
	if err != nil {
		t.Fatal(err)
	}
	without, err := runArms(env, cells, []arm{naiveArm, twoLevelArm})
	if err != nil {
		t.Fatal(err)
	}
	for c := range cells {
		for k := 0; k < with.graphs; k++ {
			for rep := 0; rep < with.reps; rep++ {
				for a, aw := range [2]int{0, 2} {
					g, w := with.at(c, k, rep, aw), without.at(c, k, rep, a)
					if math.Float64bits(g.AR) != math.Float64bits(w.AR) || g.NFev != w.NFev {
						t.Errorf("cell %d graph %d rep %d arm %s: %+v with hier, %+v without", c, k, rep, without.arms[a].name, *g, *w)
					}
				}
			}
		}
	}
}

// RunHierarchical's naive and two-level arms are Table I's L-BFGS-B rows
// at p ≥ 3.
func TestRunHierarchicalMatchesRunTable1(t *testing.T) {
	env := sharedEnv(t)
	hier, err := RunHierarchical(env)
	if err != nil {
		t.Fatal(err)
	}
	var want []ArmRow
	for _, r := range RunTable1(env).Rows {
		if r.Optimizer == hier.Rows[0].Optimizer && r.Depth >= 3 {
			want = append(want, r)
		}
	}
	rowBitsEqual(t, "hier vs table1", hier.Rows, want, 2)
}

func TestRunTable1SchedulingInvariant(t *testing.T) {
	env := sharedEnv(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := RunTable1(env)
	runtime.GOMAXPROCS(4)
	parallel := RunTable1(env)
	rowBitsEqual(t, "GOMAXPROCS 4 vs 1", parallel.Rows, serial.Rows, 2)
}

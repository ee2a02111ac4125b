package problem

import (
	"math/rand"
	"testing"
)

// Golden fingerprints, recorded at the commit before Instance.Fingerprint
// was rewritten to hash one buffer. A fingerprint is persistent state:
// WAL accepted records and cached results carry it across an upgrade, so
// a rewrite must hash the same bytes. One seeded RandomSpec per family
// compiler at 8 qubits, rng seeded 1000 + the family's wire index.
var pinnedFingerprints = map[string]string{
	FamilyMaxCut:    "964c4908ab278aac351b9a1a0d73063a21715212d267637469f3ce814aa90631",
	FamilyQUBO:      "eeb8f17b82a2b6dd4a825864003e302825d734fa2cf6c9db84fd82668a76fa85",
	FamilyMaxKSAT:   "ae5a9b5146c780eda3eb7e35d4f04ead770ef4d9c24cadb6d00b1a178c93d881",
	FamilyPartition: "a7fae32afcfd384ca06965361e4112e75fe35c976107ba8aaafebbfc06597cc2",
	FamilyPortfolio: "cad0be430267bfe932c7cc7b808d58c837da329e7f4f937fcba4cc2330119bf1",
	FamilyColoring:  "457bc04fb1c5351813c993d5d0d017f61e4eeb49e7832a8e8def3de9b4f3567b",
}

func TestFingerprintPinnedPerFamily(t *testing.T) {
	for i, family := range Families() {
		spec, err := RandomSpec(family, 8, rand.New(rand.NewSource(1000+int64(i))))
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		in, err := spec.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", family, err)
		}
		if got := in.Fingerprint(); got != pinnedFingerprints[family] {
			t.Errorf("%s: instance fingerprint moved:\n got %s\nwant %s", family, got, pinnedFingerprints[family])
		}
	}
}

// pinnedShuffled builds a hand-made instance whose couplings arrive
// out of order and repeat: (i, j) pairs drawn with replacement, so equal
// sort keys carry different weights and the sort's treatment of ties is
// part of the hashed bytes. 48 terms: past the insertion-sort cutoff of
// both sort.Slice and slices.SortFunc.
func pinnedShuffled() *Instance {
	rng := rand.New(rand.NewSource(77))
	in := &Instance{
		Family: FamilyQUBO, Sense: Minimize, N: 6, Vars: 5,
		Linear: []float64{0.5, -1, 0, 2, -0.25, 1e-3},
		Offset: -3.75,
	}
	for k := 0; k < 48; k++ {
		i := rng.Intn(5)
		j := i + 1 + rng.Intn(5-i)
		in.Quad = append(in.Quad, Term{I: i, J: j, W: float64(k%7) - 2.5})
	}
	return in
}

func TestFingerprintPinnedShuffledRepeated(t *testing.T) {
	const want = "a0facce21199f132dd6d7ffa4a736b1746f7edd3228bda42c9c12e19be92ed6f"
	in := pinnedShuffled()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	before := append([]Term(nil), in.Quad...)
	if got := in.Fingerprint(); got != want {
		t.Errorf("fingerprint moved:\n got %s\nwant %s", got, want)
	}
	for k, term := range in.Quad {
		if term != before[k] {
			t.Fatalf("Fingerprint reordered the instance's own terms at %d", k)
		}
	}
}

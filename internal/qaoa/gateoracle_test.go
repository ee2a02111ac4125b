package qaoa

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"testing"

	"qaoaml/internal/problem"
)

// gateOracleDigests maps each TestGateOracleEveryFamily group to the
// SHA-256 of GateState's amplitude bits over the group's cells, in cell
// order. The digests were recorded from the gate-circuit IR GateState
// replaced, so they pin the gate sequence, not only its rounding-level
// agreement with the fast path.
const gateOracleDigests = "testdata/gate_state_digests.json"

// TestGateOracleEveryFamily meets every family compiler with the gate
// oracle: random instances of each of problem.Families() at n = 4…10
// qubits and p = 1…3 stages, plus 3-SAT formulas whose clauses add
// auxiliary qubits. Each cell asserts that Problem.Expectation equals
// ⟨Score⟩ on GateState and that ⟨Score⟩ equals its Pauli decomposition
// sense·(Offset + Σ h_i⟨Z_i⟩ + Σ J_ij⟨Z_iZ_j⟩), both within
// 1e-12·(|Offset| + Σ|h| + Σ|J|), and each group's amplitude bits hash
// to the recorded digest.
func TestGateOracleEveryFamily(t *testing.T) {
	raw, err := os.ReadFile(gateOracleDigests)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for fi, fam := range problem.Families() {
		rng := rand.New(rand.NewSource(int64(1 + fi)))
		h := sha256.New()
		for n := 4; n <= 10; n++ {
			spec, err := problem.RandomSpec(fam, n, rng)
			if err != nil {
				t.Fatal(err)
			}
			checkGateOracle(t, fmt.Sprintf("%s/n=%d", fam, n), spec, rng, h)
		}
		got[fam] = hex.EncodeToString(h.Sum(nil))
	}
	rng := rand.New(rand.NewSource(7))
	h := sha256.New()
	for vars := 4; vars <= 6; vars++ {
		// One auxiliary qubit per 3-literal clause: 2·vars qubits.
		spec := problem.MaxKSAT(problem.RandomMaxKSAT(vars, vars, 3, rng))
		checkGateOracle(t, fmt.Sprintf("3sat/vars=%d", vars), spec, rng, h)
	}
	got["3sat-aux"] = hex.EncodeToString(h.Sum(nil))

	if len(got) != len(want) {
		t.Errorf("%d digest groups, %s records %d", len(got), gateOracleDigests, len(want))
	}
	for name, d := range got {
		if d != want[name] {
			t.Errorf("%s: GateState digest %s, recorded %s", name, d, want[name])
		}
	}
}

// checkGateOracle runs one instance at p = 1…3 with angles drawn from
// rng, asserts the two expectation identities and writes each
// GateState's amplitude bits to h.
func checkGateOracle(t *testing.T, name string, spec problem.Spec, rng *rand.Rand, h hash.Hash) {
	t.Helper()
	pb, err := New(spec)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	in := pb.Inst
	scale := math.Abs(in.Offset)
	for _, c := range in.Linear {
		scale += math.Abs(c)
	}
	for _, c := range in.Quad {
		scale += math.Abs(c.W)
	}
	tol := 1e-12 * scale
	table := make([]float64, 1<<uint(in.N))
	for z := range table {
		table[z] = in.Score(uint64(z))
	}
	var buf [16]byte
	for p := 1; p <= 3; p++ {
		pr := randomParams(rng, p)
		st := pb.GateState(pr)
		score := st.ExpectationDiagonal(table)
		if got := pb.Expectation(pr); math.Abs(got-score) > tol {
			t.Errorf("%s p=%d: Expectation %v, ⟨Score⟩ on GateState %v (tol %v)", name, p, got, score, tol)
		}
		pauli := in.Offset
		for q, c := range in.Linear {
			pauli += c * st.ExpectationZ(q)
		}
		for _, c := range in.Quad {
			pauli += c.W * st.ExpectationZZ(c.I, c.J)
		}
		pauli *= in.Sense.Sign()
		if math.Abs(pauli-score) > tol {
			t.Errorf("%s p=%d: Pauli decomposition %v, ⟨Score⟩ %v (tol %v)", name, p, pauli, score, tol)
		}
		for z := 0; z < st.Dim(); z++ {
			a := st.Amplitude(uint64(z))
			binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(real(a)))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(imag(a)))
			h.Write(buf[:])
		}
	}
}

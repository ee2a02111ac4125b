package problem

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"qaoaml/internal/graph"
)

// Encoding a spec and decoding the payload, through its JSON bytes,
// gives back the same instance: the fingerprint the cache keys on.
func TestWireRoundTrip(t *testing.T) {
	specs := map[string]Spec{}
	for i, family := range Families() {
		s, err := RandomSpec(family, 8, rand.New(rand.NewSource(2000+int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		specs[family] = s
	}
	weighted := graph.New(5)
	for i, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}, {1, 3}} {
		if err := weighted.AddWeightedEdge(e[0], e[1], 0.5+float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	specs["weighted maxcut"] = MaxCut(weighted)

	for name, s := range specs {
		w, err := WireOf(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		blob, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		var back Wire
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatal(err)
		}
		got, err := back.Spec(s.Family, BruteForceMaxQubits)
		if err != nil {
			t.Fatalf("%s: decoding %s: %v", name, blob, err)
		}
		want, err := s.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp, err := got.Fingerprint(); err != nil || fp != want {
			t.Errorf("%s: round trip fingerprints %s (%v), want %s", name, fp, err, want)
		}
	}
}

// fuzzWireMaxQubits is the cap the fuzzed decoder runs under, the
// rejection table's.
const fuzzWireMaxQubits = 12

// FuzzWire drives the one decoder of a problem instance the way a
// request reaches it: JSON with unknown keys refused, Wire.Spec, then
// Compile. Whatever the bytes it must not panic, and an instance whose
// width is arithmetic (maxcut, partition, portfolio, coloring) reaches
// Compile only within the cap — and compiles to the width it was
// checked at. The seeds under testdata/fuzz/FuzzWire are one valid
// request per family and every payload of the server's rejection table.
func FuzzWire(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		var req struct {
			Problem string `json:"problem"`
			Wire
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		spec, err := req.Wire.Spec(req.Problem, fuzzWireMaxQubits)
		if err != nil {
			return
		}
		if spec.Family != req.Problem {
			t.Fatalf("decoded a %q payload as %q", req.Problem, spec.Family)
		}
		arithmetic := req.Problem != FamilyQUBO && req.Problem != FamilyMaxKSAT
		qubits := 0
		if arithmetic {
			if qubits, err = spec.Qubits(); err != nil || qubits < 2 || qubits > fuzzWireMaxQubits {
				t.Fatalf("%s passed the cap of %d at width %d (%v)", req.Problem, fuzzWireMaxQubits, qubits, err)
			}
		}
		in, err := spec.Compile()
		if err != nil {
			return
		}
		if arithmetic && in.N != qubits {
			t.Fatalf("%s checked at %d qubits compiled to %d", req.Problem, qubits, in.N)
		}
	})
}

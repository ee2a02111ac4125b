package graph

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
)

// Fingerprint returns a deterministic canonical hash of the graph: the
// SHA-256 of the vertex count followed by the (u, v, w) edge triples in
// sorted (u, v) order, with weights encoded as IEEE-754 bits. Two graphs
// have equal fingerprints iff they have the same vertex count and the
// same weighted edge set, regardless of edge insertion order — which
// makes the fingerprint a safe cache key for solve results (see
// internal/server): an instance hashes to the same key however the
// client happened to serialize its edge list.
//
// The hash is NOT invariant under vertex relabeling: MaxCut assignments
// are reported per vertex index, so isomorphic-but-relabeled instances
// are deliberately distinct.
func (g *Graph) Fingerprint() string {
	// Sort edge indices by (U, V); edges are stored with U < V and never
	// repeat, so this is a total order over the edge set.
	idx := make([]int, len(g.edges))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		ea, eb := g.edges[a], g.edges[b]
		if ea.U != eb.U {
			return cmp.Compare(ea.U, eb.U)
		}
		return cmp.Compare(ea.V, eb.V)
	})

	// One buffer, one hash call: (N, edge count), then every (u, v, w).
	le := binary.LittleEndian
	buf := make([]byte, 0, 16+24*len(idx))
	buf = le.AppendUint64(buf, uint64(g.N))
	buf = le.AppendUint64(buf, uint64(len(g.edges)))
	for _, i := range idx {
		e := g.edges[i]
		buf = le.AppendUint64(buf, uint64(e.U))
		buf = le.AppendUint64(buf, uint64(e.V))
		buf = le.AppendUint64(buf, math.Float64bits(g.weights[i]))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

package graph

import (
	"fmt"
	"math/rand"
)

// ErdosRenyi samples G(n, p): each of the n·(n-1)/2 possible edges is
// present independently with probability p. The paper draws its 330
// problem graphs from this ensemble with n = 8 and p = 0.5.
func ErdosRenyi(n int, p float64, rng *rand.Rand) *Graph {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("graph: edge probability %v out of [0,1]", p))
	}
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				mustAdd(g, u, v)
			}
		}
	}
	return g
}

// ErdosRenyiConnected samples G(n, p) conditioned on connectivity and at
// least one edge, by rejection. QAOA approximation ratios are undefined
// on empty graphs, and the paper's ensemble is effectively connected at
// n = 8, p = 0.5.
func ErdosRenyiConnected(n int, p float64, rng *rand.Rand) *Graph {
	for {
		g := ErdosRenyi(n, p, rng)
		if g.NumEdges() > 0 && g.Connected() {
			return g
		}
	}
}

// RandomRegular samples a uniform(ish) random k-regular graph on n
// vertices using the pairing/configuration model with restarts on
// collisions (self-loops or duplicate edges). It panics if n·k is odd or
// k ≥ n, which admit no simple k-regular graph.
func RandomRegular(n, k int, rng *rand.Rand) *Graph {
	if k < 0 || k >= n || n*k%2 != 0 {
		panic(fmt.Sprintf("graph: no simple %d-regular graph on %d vertices", k, n))
	}
	if k == 0 {
		return New(n)
	}
	for {
		if g, ok := tryPairing(n, k, rng); ok {
			return g
		}
	}
}

// tryPairing runs one round of the configuration model: n·k stubs are
// shuffled and paired; the attempt fails if any pair would create a
// self-loop or duplicate edge.
func tryPairing(n, k int, rng *rand.Rand) (*Graph, bool) {
	stubs := make([]int, 0, n*k)
	for v := 0; v < n; v++ {
		for i := 0; i < k; i++ {
			stubs = append(stubs, v)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	g := New(n)
	for i := 0; i < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v || g.HasEdge(u, v) {
			return nil, false
		}
		mustAdd(g, u, v)
	}
	return g, true
}

func mustAdd(g *Graph, u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic("graph: generator produced invalid edge: " + err.Error())
	}
}

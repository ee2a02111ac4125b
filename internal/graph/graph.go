// Package graph provides the undirected-graph substrate for the QAOA
// MaxCut reproduction: graph construction, the random ensembles used by
// the paper (Erdős–Rényi G(n, p) and random k-regular graphs) and cut
// evaluation. The exact MaxCut optimum is problem.Instance.BruteForce's,
// on the compiled instance. It replaces the NetworkX usage in the
// original stack.
package graph

import (
	"fmt"
	"math"
	"strings"
)

// Edge is an undirected edge between vertices U < V.
type Edge struct {
	U, V int
}

// Graph is a simple undirected graph on vertices 0..N-1 with optional
// positive or negative edge weights (unweighted edges have weight 1).
type Graph struct {
	N       int
	edges   []Edge
	weights []float64 // parallel to edges
	adj     []map[int]bool
}

// New returns an empty graph on n vertices. It panics for n < 0.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	g := &Graph{N: n, adj: make([]map[int]bool, n)}
	for i := range g.adj {
		g.adj[i] = make(map[int]bool)
	}
	return g
}

// AddEdge inserts the undirected edge (u, v) with weight 1. Self-loops
// and duplicate edges are rejected with an error; out-of-range vertices
// panic.
func (g *Graph) AddEdge(u, v int) error { return g.AddWeightedEdge(u, v, 1) }

// AddWeightedEdge inserts the undirected edge (u, v) with the given
// weight. Zero, NaN and infinite weights are rejected.
func (g *Graph) AddWeightedEdge(u, v int, w float64) error {
	if u < 0 || u >= g.N || v < 0 || v >= g.N {
		panic(fmt.Sprintf("graph: vertex out of range: (%d,%d) in graph of %d", u, v, g.N))
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if g.adj[u][v] {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	if w == 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("graph: invalid edge weight %v on (%d,%d)", w, u, v)
	}
	if u > v {
		u, v = v, u
	}
	g.adj[u][v] = true
	g.adj[v][u] = true
	g.edges = append(g.edges, Edge{U: u, V: v})
	g.weights = append(g.weights, w)
	return nil
}

// Weighted reports whether any edge has weight ≠ 1.
func (g *Graph) Weighted() bool {
	for _, w := range g.weights {
		if w != 1 {
			return true
		}
	}
	return false
}

// Weights returns a copy of the edge weights in Edges() order.
func (g *Graph) Weights() []float64 {
	return append([]float64(nil), g.weights...)
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() float64 {
	t := 0.0
	for _, w := range g.weights {
		t += w
	}
	return t
}

// HasEdge reports whether (u, v) is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.N || v < 0 || v >= g.N {
		return false
	}
	return g.adj[u][v]
}

// Edges returns a copy of the edge list with U < V in each edge.
func (g *Graph) Edges() []Edge {
	return append([]Edge(nil), g.edges...)
}

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Connected reports whether the graph is connected (true for n ≤ 1).
func (g *Graph) Connected() bool {
	if g.N <= 1 {
		return true
	}
	seen := make([]bool, g.N)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for u := range g.adj[v] {
			if !seen[u] {
				seen[u] = true
				count++
				stack = append(stack, u)
			}
		}
	}
	return count == g.N
}

// WeightedCutValue returns the total weight of edges crossing the cut.
func (g *Graph) WeightedCutValue(assign uint64) float64 {
	cut := 0.0
	for i, e := range g.edges {
		if (assign>>uint(e.U))&1 != (assign>>uint(e.V))&1 {
			cut += g.weights[i]
		}
	}
	return cut
}

// WeightedCutTable returns the weighted cut value for all 2^N
// assignments — the QAOA cost diagonal for weighted MaxCut. It panics
// for N > 24.
func (g *Graph) WeightedCutTable() []float64 {
	if g.N > 24 {
		panic("graph: WeightedCutTable limited to n <= 24")
	}
	table := make([]float64, 1<<uint(g.N))
	for a := range table {
		table[a] = g.WeightedCutValue(uint64(a))
	}
	return table
}

// String renders the graph as "n=<N> edges=[(u,v) ...]"; weighted edges
// render as "(u,v):w".
func (g *Graph) String() string {
	var b strings.Builder
	weighted := g.Weighted()
	fmt.Fprintf(&b, "n=%d edges=[", g.N)
	for i, e := range g.edges {
		if i > 0 {
			b.WriteByte(' ')
		}
		if weighted {
			fmt.Fprintf(&b, "(%d,%d):%g", e.U, e.V, g.weights[i])
		} else {
			fmt.Fprintf(&b, "(%d,%d)", e.U, e.V)
		}
	}
	b.WriteByte(']')
	return b.String()
}

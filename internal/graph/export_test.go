package graph

// The graph builders the external graph_test package shares; its tests
// read the exact optimum from qaoa, which imports this package.
var (
	PathGraph  = pathGraph
	CycleGraph = cycleGraph
	FromEdges  = fromEdges
	Complete   = complete
	MustAddW   = mustAddW
)

package ml

import (
	"math"
	"sort"
)

// Tree is a CART regression tree grown by greedy variance-reduction
// splits, the paper's "RTREE" model.
type Tree struct {
	root   *treeNode
	dim    int
	fitted bool
}

type treeNode struct {
	feature     int     // split feature (leaf if left == nil)
	threshold   float64 // go left when x[feature] <= threshold
	value       float64 // leaf prediction (mean of targets)
	left, right *treeNode
}

const (
	treeMaxDepth    = 8 // a single leaf has depth 1
	treeMinLeafSize = 3 // training points per leaf, at least
)

// Name implements Regressor.
func (t *Tree) Name() string { return "RTREE" }

// Fit implements Regressor.
func (t *Tree) Fit(x [][]float64, y []float64) error {
	dim, err := checkTrainingData(x, y)
	if err != nil {
		return err
	}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	t.dim = dim
	t.root = grow(x, y, idx, treeMaxDepth, treeMinLeafSize)
	t.fitted = true
	return nil
}

// Predict implements Regressor.
func (t *Tree) Predict(x []float64) float64 {
	if !t.fitted {
		panic("ml: Tree.Predict before Fit")
	}
	if len(x) != t.dim {
		panic("ml: Tree.Predict feature dim mismatch")
	}
	n := t.root
	for n.left != nil {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// Depth returns the tree height (a single leaf has depth 1).
func (t *Tree) Depth() int {
	if !t.fitted {
		return 0
	}
	return depthOf(t.root)
}

// Leaves returns the number of leaf nodes.
func (t *Tree) Leaves() int {
	if !t.fitted {
		return 0
	}
	return leavesOf(t.root)
}

func depthOf(n *treeNode) int {
	if n.left == nil {
		return 1
	}
	l, r := depthOf(n.left), depthOf(n.right)
	if r > l {
		l = r
	}
	return l + 1
}

func leavesOf(n *treeNode) int {
	if n.left == nil {
		return 1
	}
	return leavesOf(n.left) + leavesOf(n.right)
}

func grow(x [][]float64, y []float64, idx []int, depthLeft, minLeaf int) *treeNode {
	node := &treeNode{value: meanAt(y, idx)}
	if depthLeft <= 1 || len(idx) < 2*minLeaf || constantAt(y, idx) {
		return node
	}
	feature, threshold, ok := bestSplit(x, y, idx, minLeaf)
	if !ok {
		return node
	}
	var li, ri []int
	for _, i := range idx {
		if x[i][feature] <= threshold {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) < minLeaf || len(ri) < minLeaf {
		return node
	}
	node.feature = feature
	node.threshold = threshold
	node.left = grow(x, y, li, depthLeft-1, minLeaf)
	node.right = grow(x, y, ri, depthLeft-1, minLeaf)
	return node
}

// bestSplit scans every feature and midpoint threshold for the split
// minimizing the weighted sum of child SSEs.
func bestSplit(x [][]float64, y []float64, idx []int, minLeaf int) (feature int, threshold float64, ok bool) {
	bestSSE := math.Inf(1)
	dim := len(x[idx[0]])
	order := make([]int, len(idx))
	for f := 0; f < dim; f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return x[order[a]][f] < x[order[b]][f] })
		// Prefix sums over the sorted order for O(1) SSE evaluation.
		n := len(order)
		sum, sum2 := 0.0, 0.0
		prefix := make([]float64, n+1)
		prefix2 := make([]float64, n+1)
		for i, id := range order {
			sum += y[id]
			sum2 += y[id] * y[id]
			prefix[i+1] = sum
			prefix2[i+1] = sum2
		}
		for cut := minLeaf; cut <= n-minLeaf; cut++ {
			lo, hi := x[order[cut-1]][f], x[order[cut]][f]
			if lo == hi {
				continue // cannot separate equal feature values
			}
			nl, nr := float64(cut), float64(n-cut)
			sseL := prefix2[cut] - prefix[cut]*prefix[cut]/nl
			sseR := (prefix2[n] - prefix2[cut]) - (prefix[n]-prefix[cut])*(prefix[n]-prefix[cut])/nr
			if sse := sseL + sseR; sse < bestSSE {
				bestSSE = sse
				feature = f
				threshold = (lo + hi) / 2
				ok = true
			}
		}
	}
	return feature, threshold, ok
}

func meanAt(y []float64, idx []int) float64 {
	s := 0.0
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

func constantAt(y []float64, idx []int) bool {
	for _, i := range idx[1:] {
		if y[i] != y[idx[0]] {
			return false
		}
	}
	return true
}

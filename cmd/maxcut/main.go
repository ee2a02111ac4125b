// Command maxcut solves a (weighted) MaxCut instance with QAOA.
//
// The graph is an edge list read from a file or stdin, one edge per
// line as "u v" or "u v weight" (0-based vertex ids, '#' comments).
//
//	echo "0 1
//	1 2
//	0 2 2.5" | maxcut -depth 2
//
// The tool runs a multistart QAOA optimization, prints the optimized
// angles, the expected and most-probable cut, and the exact optimum the
// approximation ratio is taken against. Graphs have at most 20 vertices.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"qaoaml/internal/core"
	"qaoaml/internal/optimize"
	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
)

func main() {
	var (
		depth   = flag.Int("depth", 2, "QAOA circuit depth p")
		optName = flag.String("optimizer", "lbfgsb", "local optimizer: lbfgsb|neldermead|slsqp|cobyla")
		starts  = flag.Int("starts", 10, "random multistarts")
		seed    = flag.Int64("seed", 1, "RNG seed")
		tol     = flag.Float64("tol", 1e-6, "functional tolerance")
		file    = flag.String("f", "-", "edge-list file ('-' = stdin)")
		quiet   = flag.Bool("q", false, "print only the assignment and cut value")
	)
	flag.Parse()

	if err := run(*file, *depth, *optName, *starts, *seed, *tol, *quiet, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "maxcut:", err)
		os.Exit(1)
	}
}

// maxNodes is the widest graph the tool solves, as qaoad's default -max-nodes.
const maxNodes = 20

func run(file string, depth int, optName string, starts int, seed int64, tol float64, quiet bool, w io.Writer) error {
	if depth < 1 {
		return fmt.Errorf("depth %d < 1", depth)
	}
	if starts < 1 {
		return fmt.Errorf("starts %d < 1", starts)
	}
	if !(tol > 0) || math.IsInf(tol, 1) {
		return fmt.Errorf("tol %v: want a finite value > 0", tol)
	}
	opt, err := optimizerByName(optName, tol)
	if err != nil {
		return err
	}
	var in io.Reader = os.Stdin
	if file != "-" {
		f, err := os.Open(file)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	spec, err := parseEdgeList(in)
	if err != nil {
		return err
	}
	pb, err := qaoa.New(spec)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(seed))
	rec, err := core.Solve(context.Background(), pb, core.Options{
		Depth: depth, Optimizer: opt, Rng: rng, Starts: starts,
	})
	if err != nil {
		return err
	}
	cut, assign := qaoa.NewEvaluator(pb, depth).BestSampled(rec.Params)

	g := pb.Spec.Graph
	if quiet {
		fmt.Fprintf(w, "%0*b %g\n", g.N, assign, cut)
		return nil
	}
	fmt.Fprintf(w, "graph: %v\n", g)
	fmt.Fprintf(w, "optimizer: %s, depth %d, %d starts, tol %g\n", opt.Name(), depth, starts, tol)
	fmt.Fprintf(w, "QC calls: %d\n", rec.NFev)
	fmt.Fprintf(w, "angles: γ=%.4f β=%.4f\n", rec.Params.Gamma, rec.Params.Beta)
	fmt.Fprintf(w, "expected cut ⟨C⟩: %.4f\n", pb.Expectation(rec.Params))
	fmt.Fprintf(w, "approximation ratio: %.4f\n", rec.AR)
	fmt.Fprintf(w, "assignment: %0*b → cut %g\n", g.N, assign, cut)
	_, _, optAssign := pb.Inst.BruteForce()
	fmt.Fprintf(w, "exact optimum (brute force): %0*b → cut %g\n", g.N, optAssign, pb.OptValue)
	return nil
}

// parseEdgeList reads "u v [weight]" lines, ignoring blanks and
// '#'-comments, into a graph sized to the largest vertex id. It only
// splits the lines; problem.Wire.Spec checks the graph as qaoad does,
// and an edge it rejects is reported by its input line.
func parseEdgeList(r io.Reader) (problem.Spec, error) {
	var wire problem.Wire
	var lines []int // lines[i] is the input line of wire.Edges[i]
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 && len(fields) != 3 {
			return problem.Spec{}, fmt.Errorf("line %d: want 'u v [weight]', got %q", lineNo, line)
		}
		var e [2]int
		for i, f := range fields[:2] {
			v, err := strconv.Atoi(f)
			if err != nil || v < 0 || v >= maxNodes {
				return problem.Spec{}, fmt.Errorf("line %d: bad vertex %q (ids run 0..%d)", lineNo, f, maxNodes-1)
			}
			e[i] = v
			// A lone "0 0" still sizes two nodes, so it reports its self-loop.
			wire.Nodes = max(wire.Nodes, v+1, 2)
		}
		wgt := 1.0
		if len(fields) == 3 {
			var err error
			if wgt, err = strconv.ParseFloat(fields[2], 64); err != nil {
				return problem.Spec{}, fmt.Errorf("line %d: bad weight %q", lineNo, fields[2])
			}
		}
		wire.Edges = append(wire.Edges, e)
		wire.Weights = append(wire.Weights, wgt)
		lines = append(lines, lineNo)
	}
	if err := sc.Err(); err != nil {
		return problem.Spec{}, err
	}
	if len(wire.Edges) == 0 {
		return problem.Spec{}, fmt.Errorf("no edges in input")
	}
	spec, err := wire.Spec(problem.FamilyMaxCut, maxNodes)
	var ee *problem.EdgeError
	if errors.As(err, &ee) {
		return problem.Spec{}, fmt.Errorf("line %d: %w", lines[ee.Index], ee.Err)
	}
	return spec, err
}

// optimizerByName maps a CLI name (optimize.ByName's, or an alias) to
// an optimizer at the given tolerance.
func optimizerByName(name string, tol float64) (optimize.Optimizer, error) {
	key := strings.ToLower(name)
	switch key {
	case "l-bfgs-b":
		key = "lbfgsb"
	case "nelder-mead", "nm":
		key = "neldermead"
	}
	if opt, ok := optimize.ByName(key, tol); ok {
		return opt, nil
	}
	return nil, fmt.Errorf("unknown optimizer %q", name)
}

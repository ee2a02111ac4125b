package main

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"
)

func TestParseEdgeList(t *testing.T) {
	in := `
# a triangle with one weighted edge
0 1
1 2 2.5

0 2   # inline comment
`
	spec, err := parseEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Graph
	if g.N != 3 || g.NumEdges() != 3 {
		t.Fatalf("parsed n=%d m=%d", g.N, g.NumEdges())
	}
	if !g.Weighted() || g.TotalWeight() != 4.5 {
		t.Errorf("weights wrong: total %v", g.TotalWeight())
	}
}

func TestParseEdgeListErrors(t *testing.T) {
	// want, where set, is what the error must name: an edge the graph
	// rejects is reported by its input line, not its index.
	cases := map[string]struct{ in, want string }{
		"empty":              {in: ""},
		"only comments":      {in: "# nothing\n"},
		"bad fields":         {in: "0 1 2 3\n"},
		"bad vertex":         {in: "a 1\n"},
		"bad weight":         {in: "0 1 x\n"},
		"negative vertex":    {in: "-1 2\n"},
		"self loop":          {in: "1 1\n"},
		"duplicate":          {in: "0 1\n1 0\n"},
		"too large":          {in: "0 25\n"},
		"max int vertex":     {in: "0 9223372036854775807\n"},
		"zero weight":        {in: "0 1 0\n"},
		"weight overflow":    {in: "0 1 1e308\n1 2 1e308\n"},
		"duplicate, comment": {in: "# c\n0 1\n1 0\n", want: "line 3: "},
		"self loop, blanks":  {in: "0 1\n\n# x\n1 1\n", want: "line 4: "},
		"zero weight line":   {in: "0 1\n1 2 0\n", want: "line 2: "},
	}
	for name, c := range cases {
		_, err := parseEdgeList(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: accepted %q", name, c.in)
		} else if !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s: %q gives %q, want it to start with %q", name, c.in, err, c.want)
		}
	}
}

func TestOptimizerByName(t *testing.T) {
	for _, name := range []string{"lbfgsb", "Nelder-Mead", "slsqp", "COBYLA"} {
		opt, err := optimizerByName(name, 1e-6)
		if err != nil || opt == nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, name := range []string{"adam", "spsa"} {
		if _, err := optimizerByName(name, 1e-6); err == nil {
			t.Errorf("unknown optimizer %q accepted", name)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	// A bipartite square: the optimum cuts all 4 edges; depth-2 QAOA
	// with a few starts should find it comfortably.
	dir := t.TempDir()
	path := dir + "/square.txt"
	if err := writeFile(path, "0 1\n1 2\n2 3\n0 3\n"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(path, 2, "lbfgsb", 5, 1, 1e-6, false, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"approximation ratio", "exact optimum", "cut 4"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunQuiet(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/edge.txt"
	if err := writeFile(path, "0 1\n"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(path, 1, "neldermead", 3, 2, 1e-6, true, &buf); err != nil {
		t.Fatal(err)
	}
	fields := strings.Fields(buf.String())
	if len(fields) != 2 {
		t.Fatalf("quiet output = %q", buf.String())
	}
}

// Every flag is checked before the input is read: those rows name a
// missing file, and the error must be the flag's. A graph that parses
// but has no MaxCut ratio is refused by its compiler.
func TestRunValidation(t *testing.T) {
	dir := t.TempDir()
	missing := dir + "/missing.txt"
	negative := dir + "/negative.txt"
	if err := writeFile(negative, "0 1 -1\n1 2 -2\n"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		file    string
		depth   int
		opt     string
		starts  int
		tol     float64
		wantErr string
	}{
		{"depth 0", missing, 0, "lbfgsb", 5, 1e-6, "depth"},
		{"0 starts", missing, 1, "lbfgsb", 0, 1e-6, "starts"},
		{"unknown optimizer", missing, 1, "nope", 5, 1e-6, "optimizer"},
		{"negative tol", missing, 1, "lbfgsb", 5, -1, "tol"},
		{"zero tol", missing, 1, "lbfgsb", 5, 0, "tol"},
		{"NaN tol", missing, 1, "lbfgsb", 5, math.NaN(), "tol"},
		{"infinite tol", missing, 1, "lbfgsb", 5, math.Inf(1), "tol"},
		{"missing file", missing, 1, "lbfgsb", 5, 1e-6, "missing.txt"},
		{"no positive weight", negative, 1, "lbfgsb", 5, 1e-6, "no positive edge weight"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		err := run(c.file, c.depth, c.opt, c.starts, 1, c.tol, false, &buf)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.wantErr)
		}
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

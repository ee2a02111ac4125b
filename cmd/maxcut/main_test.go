package main

import (
	"bytes"
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
	g, err := parseEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || g.NumEdges() != 3 {
		t.Fatalf("parsed n=%d m=%d", g.N, g.NumEdges())
	}
	if !g.Weighted() || g.TotalWeight() != 4.5 {
		t.Errorf("weights wrong: total %v", g.TotalWeight())
	}
}

func TestParseEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"only comments":   "# nothing\n",
		"bad fields":      "0 1 2 3\n",
		"bad vertex":      "a 1\n",
		"bad weight":      "0 1 x\n",
		"negative vertex": "-1 2\n",
		"self loop":       "1 1\n",
		"duplicate":       "0 1\n1 0\n",
		"too large":       "0 25\n",
	}
	for name, in := range cases {
		if _, err := parseEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
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

func TestRunValidation(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/edge.txt"
	if err := writeFile(path, "0 1\n"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(path, 0, "lbfgsb", 5, 1, 1e-6, false, &buf); err == nil {
		t.Error("depth 0 accepted")
	}
	if err := run(path, 1, "lbfgsb", 0, 1, 1e-6, false, &buf); err == nil {
		t.Error("0 starts accepted")
	}
	if err := run(path, 1, "nope", 5, 1, 1e-6, false, &buf); err == nil {
		t.Error("unknown optimizer accepted")
	}
	if err := run(dir+"/missing.txt", 1, "lbfgsb", 5, 1, 1e-6, false, &buf); err == nil {
		t.Error("missing file accepted")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

package qaoaml

import (
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The documents that describe the tree must cite only names the tree
// declares. TestDocsCiteLiveNames parses every Go file of the module and
// resolves, in DESIGN.md and README.md:
//
//   - every backticked Test*, Benchmark* or Fuzz* name to a declared
//     function (a trailing * is a prefix match);
//   - every *.go file name to a file (a bare name to any file of that
//     name, a path to a file whose path ends with it);
//   - every backticked pkg.Ident, pkg a package of the tree and Ident
//     exported, to a top-level declaration or a method of that package;
//   - every "`Name` = value" or "`pkg.Name` = value" whose Name is a
//     package-level constant to that constant's value, the value written
//     15, 1 << 16 or 2¹⁶.
//
// Telemetry and benchmark metric names (optimize.ngev,
// quantum.sharded_vs_flat_ratio) are lower case and not checked.

var docFiles = []string{"DESIGN.md", "README.md"}

var (
	backtickSpan = regexp.MustCompile("`[^`\n]+`")
	testFuncName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*\*?`)
	goFileName   = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_]\.go`)
	pkgIdent     = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9]*)\b`)
	constValue   = regexp.MustCompile("`(?:([a-z][a-z0-9]*)\\.)?([A-Z][A-Za-z0-9_]*)` = `?([0-9]+)(?: << ([0-9]+)|([⁰¹²³⁴⁵⁶⁷⁸⁹]+))?")
)

// goTree is what the module declares: every file path, every top-level
// function name, every package's top-level and method names, and the
// value of every package-level constant that folds to an integer.
type goTree struct {
	files  []string                             // slash-separated, relative to the module root
	funcs  map[string]bool                      // top-level functions, test files included
	decls  map[string]map[string]bool           // package name → declared names
	consts map[string]map[string]constant.Value // package name → constant values
}

func parseGoTree(t *testing.T, root string) *goTree {
	t.Helper()
	tr := &goTree{funcs: map[string]bool{}, decls: map[string]map[string]bool{}, consts: map[string]map[string]constant.Value{}}
	exprs := map[string]map[string]ast.Expr{} // package name → constant name → value
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		tr.files = append(tr.files, filepath.ToSlash(rel))
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if tr.decls[pkg] == nil {
			tr.decls[pkg] = map[string]bool{}
			exprs[pkg] = map[string]ast.Expr{}
		}
		names := tr.decls[pkg]
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					tr.funcs[d.Name.Name] = true
				}
				names[d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
					case *ast.ValueSpec:
						for i, id := range s.Names {
							names[id.Name] = true
							if d.Tok == token.CONST && i < len(s.Values) {
								exprs[pkg][id.Name] = s.Values[i]
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pkg, m := range exprs {
		tr.consts[pkg] = map[string]constant.Value{}
		for name, e := range m {
			if v := foldConst(e, m, 0); v.Kind() == constant.Int {
				tr.consts[pkg][name] = v
			}
		}
	}
	return tr
}

// foldConst evaluates an integer constant expression of literals, other
// constants of the same package, parentheses, +, −, × and shifts.
// Anything else (iota, conversions, calls) is Unknown.
func foldConst(e ast.Expr, pkgConsts map[string]ast.Expr, depth int) constant.Value {
	if depth > 16 {
		return constant.MakeUnknown()
	}
	switch e := e.(type) {
	case *ast.BasicLit:
		return constant.MakeFromLiteral(e.Value, e.Kind, 0)
	case *ast.ParenExpr:
		return foldConst(e.X, pkgConsts, depth+1)
	case *ast.Ident:
		if def, ok := pkgConsts[e.Name]; ok {
			return foldConst(def, pkgConsts, depth+1)
		}
	case *ast.BinaryExpr:
		x, y := foldConst(e.X, pkgConsts, depth+1), foldConst(e.Y, pkgConsts, depth+1)
		if x.Kind() != constant.Int || y.Kind() != constant.Int {
			break
		}
		switch e.Op {
		case token.SHL, token.SHR:
			if s, ok := constant.Uint64Val(y); ok && s < 64 {
				return constant.Shift(x, e.Op, uint(s))
			}
		case token.ADD, token.SUB, token.MUL:
			return constant.BinaryOp(x, e.Op, y)
		}
	}
	return constant.MakeUnknown()
}

// hasFunc reports whether name — or, ending in *, a prefix of it — is a
// declared top-level function.
func (tr *goTree) hasFunc(name string) bool {
	prefix, ok := strings.CutSuffix(name, "*")
	if !ok {
		return tr.funcs[name]
	}
	for f := range tr.funcs {
		if strings.HasPrefix(f, prefix) {
			return true
		}
	}
	return false
}

// hasFile reports whether a file of the tree is name or ends with /name.
func (tr *goTree) hasFile(name string) bool {
	name = strings.TrimPrefix(name, "./")
	for _, f := range tr.files {
		if f == name || strings.HasSuffix(f, "/"+name) {
			return true
		}
	}
	return false
}

// deadNames returns the names doc cites that the tree does not declare.
func (tr *goTree) deadNames(doc string) []string {
	var dead []string
	for _, span := range backtickSpan.FindAllString(doc, -1) {
		for _, name := range testFuncName.FindAllString(span, -1) {
			if !tr.hasFunc(name) {
				dead = append(dead, name)
			}
		}
		for _, m := range pkgIdent.FindAllStringSubmatchIndex(span, -1) {
			pkg, ident := span[m[2]:m[3]], span[m[4]:m[5]]
			names, ok := tr.decls[pkg]
			if !ok || pkg == "main" {
				continue // not a package of the tree
			}
			if !names[ident] {
				dead = append(dead, pkg+"."+ident)
			}
		}
	}
	for _, m := range goFileName.FindAllStringIndex(doc, -1) {
		if rest := doc[m[1]:]; len(rest) > 0 && (isWordByte(rest[0]) || rest[0] == '.' && len(rest) > 1 && isWordByte(rest[1])) {
			continue // a longer word or a host name (pkg.go.dev)
		}
		if name := doc[m[0]:m[1]]; !tr.hasFile(name) {
			dead = append(dead, name)
		}
	}
	return dead
}

// wrongConsts returns, for every "`Name` = value" in doc whose Name is a
// package-level constant, a description of each constant the value does
// not equal. An unqualified Name is checked in every package declaring it.
func (tr *goTree) wrongConsts(doc string) []string {
	var wrong []string
	for _, m := range constValue.FindAllStringSubmatch(doc, -1) {
		pkg, name := m[1], m[2]
		want := docValue(m[3], m[4], m[5])
		for p, consts := range tr.consts {
			got, ok := consts[name]
			if !ok || pkg != "" && p != pkg || p == "main" {
				continue
			}
			if want == nil || !constant.Compare(got, token.EQL, want) {
				wrong = append(wrong, m[0]+": "+p+"."+name+" is "+got.ExactString())
			}
		}
	}
	return wrong
}

// docValue reads a documented integer: base, base << shift, or base
// raised to a superscript exponent. It returns nil on overflow.
func docValue(base, shift, sup string) constant.Value {
	v := constant.MakeFromLiteral(base, token.INT, 0)
	switch {
	case shift != "":
		s, err := strconv.ParseUint(shift, 10, 6)
		if err != nil {
			return nil
		}
		return constant.Shift(v, token.SHL, uint(s))
	case sup != "":
		var exp int
		for _, r := range sup {
			exp = 10*exp + slices.Index([]rune("⁰¹²³⁴⁵⁶⁷⁸⁹"), r)
		}
		if exp > 64 {
			return nil
		}
		p := constant.MakeInt64(1)
		for ; exp > 0; exp-- {
			p = constant.BinaryOp(p, token.MUL, v)
		}
		return p
	}
	return v
}

func isWordByte(b byte) bool {
	return b == '_' || '0' <= b && b <= '9' || 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z'
}

func TestDocsCiteLiveNames(t *testing.T) {
	tr := parseGoTree(t, ".")
	for _, doc := range docFiles {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range tr.deadNames(string(b)) {
			t.Errorf("%s cites %s, which the tree does not declare", doc, name)
		}
		for _, w := range tr.wrongConsts(string(b)) {
			t.Errorf("%s says %s", doc, w)
		}
	}
}

func TestDocsConstantValues(t *testing.T) {
	tr := parseGoTree(t, ".")
	for doc, wrong := range map[string]bool{
		"`quantum.ParallelDim` = 2¹⁶":       false,
		"`quantum.ParallelDim` = 1 << 16":   false,
		"`quantum.ParallelDim` = `1 << 16`": false,
		"`quantum.ParallelDim` = 65536":     false,
		"`StreamingThreshold` = 15 qubits":  false,
		"`quantum.ParallelDim` = 2¹⁵":       true,
		"`quantum.ParallelDim` = 1 << 15":   true,
		"`StreamingThreshold` = 13":         true,
		"`qaoa.StreamingThreshold` = 13":    true,
		"`quantum.StreamingThreshold` = 13": false, // not a constant of quantum
	} {
		if got := len(tr.wrongConsts(doc)) > 0; got != wrong {
			t.Errorf("%q: flagged %v, want %v", doc, got, wrong)
		}
	}
}

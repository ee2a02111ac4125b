package qaoaml

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
//     exported, to a top-level declaration or a method of that package.
//
// Telemetry and benchmark metric names (optimize.ngev,
// quantum.sharded_vs_flat_ratio) are lower case and not checked.

var docFiles = []string{"DESIGN.md", "README.md"}

var (
	backtickSpan = regexp.MustCompile("`[^`\n]+`")
	testFuncName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*\*?`)
	goFileName   = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_]\.go`)
	pkgIdent     = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9]*)\b`)
)

// goTree is what the module declares: every file path, every top-level
// function name, and every package's top-level and method names.
type goTree struct {
	files []string                   // slash-separated, relative to the module root
	funcs map[string]bool            // top-level functions, test files included
	decls map[string]map[string]bool // package name → declared names
}

func parseGoTree(t *testing.T, root string) *goTree {
	t.Helper()
	tr := &goTree{funcs: map[string]bool{}, decls: map[string]map[string]bool{}}
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
						for _, id := range s.Names {
							names[id.Name] = true
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
	return tr
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
	}
}

package qaoaml

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The tree holds what its programs run — cmd/*, examples/* and
// benchmark — plus the oracles their tests compare against.
// TestEveryFunctionReached type-checks every non-test file of the module
// and walks the functions a binary can reach:
//
//   - the roots are every main and init function and every package-level
//     var initializer;
//   - a function is reached when a reached body (or a root initializer)
//     names it, called or as a value;
//   - naming an interface method reaches that method of every module
//     type that implements the interface (a generic type counts when it
//     has every method name the interface has), and the methods of the
//     stdlib interfaces in stdlibInterfaces are roots on the types that
//     implement them;
//   - the walk runs once for each of reachArches' file sets and a
//     function reached in either is reached, so a Go twin that only the
//     other architecture's file calls stays reached.
//
// An unreached function is either deleted, moved into its package's
// _test.go, or listed in testdata/reach_allow.txt as "test oracle: <the
// test that compares against it>". The test fails on any other
// unreached function, on an entry with no such reason, on an entry
// naming no function, and on an entry naming a function a binary
// reaches. Its limit: every String() string method satisfies
// fmt.Stringer, so a dead String method still passes.

var reachArches = []string{"amd64", "arm64"}

// stdlibInterfaces declares the interfaces through which the standard
// library calls a module's methods (fmt, errors, sort, container/heap,
// encoding/json, encoding, net/http, io), one named type each.
const stdlibInterfaces = `package roots

import (
	"container/heap"
	"encoding"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
)

type (
	stringer        fmt.Stringer
	goStringer      fmt.GoStringer
	formatter       fmt.Formatter
	errorer         interface{ error }
	unwrapper       interface{ Unwrap() error }
	iser            interface{ Is(error) bool }
	aser            interface{ As(any) bool }
	sorter          sort.Interface
	heaper          heap.Interface
	jsonMarshaler   json.Marshaler
	jsonUnmarshaler json.Unmarshaler
	textMarshaler   encoding.TextMarshaler
	textUnmarshaler encoding.TextUnmarshaler
	handler         http.Handler
	reader          io.Reader
	writer          io.Writer
	closer          io.Closer
)
`

// reachFunc is one function declaration of the module.
type reachFunc struct {
	name    string // package.Func or package.Recv.Method
	pos     string // file:line, relative to the module root
	reached bool
}

// reachModule returns every function declared in the non-test files of
// the module at root, each marked reached or not, in file and line order.
func reachModule(root string) ([]*reachFunc, error) {
	mod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	var paths []string // every directory's import path
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, dir)
		paths = append(paths, path.Join(mod, filepath.ToSlash(rel)))
		return err
	})
	if err != nil {
		return nil, err
	}
	r := &reachLoader{root: root, mod: mod, fset: token.NewFileSet(), files: map[string]*ast.File{}, std: importer.Default()}
	if r.roots, err = r.stdlibRoots(); err != nil {
		return nil, err
	}
	byPos := map[token.Position]*reachFunc{}
	for _, arch := range reachArches {
		r.ctxt = build.Default
		r.ctxt.GOOS, r.ctxt.GOARCH, r.ctxt.CgoEnabled = "linux", arch, false
		r.pkgs = map[string]*reachPkg{}
		r.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		for _, p := range paths {
			if _, err := r.load(p); err != nil {
				return nil, err
			}
		}
		for fn, d := range r.walk() {
			p := r.fset.Position(d.decl.Pos())
			f := byPos[p]
			if f == nil {
				file, _ := filepath.Rel(root, p.Filename)
				f = &reachFunc{name: r.funcName(fn), pos: fmt.Sprintf("%s:%d", filepath.ToSlash(file), p.Line)}
				byPos[p] = f
			}
			f.reached = f.reached || d.reached
		}
	}
	at := make([]token.Position, 0, len(byPos))
	for p := range byPos {
		at = append(at, p)
	}
	slices.SortFunc(at, func(a, b token.Position) int {
		if c := strings.Compare(a.Filename, b.Filename); c != 0 {
			return c
		}
		return a.Line - b.Line
	})
	funcs := make([]*reachFunc, len(at))
	for i, p := range at {
		funcs[i] = byPos[p]
	}
	return funcs, nil
}

func modulePath(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(m), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod names no module", root)
}

// reachLoader type-checks the module's packages for one file set (ctxt)
// into one shared types.Info; the stdlib comes from its export data.
type reachLoader struct {
	root, mod string
	fset      *token.FileSet
	files     map[string]*ast.File // parsed once, shared by both file sets
	std       types.Importer
	ctxt      build.Context
	pkgs      map[string]*reachPkg
	info      *types.Info
	roots     []*types.Interface // stdlibInterfaces
}

// stdlibRoots type-checks stdlibInterfaces against the loader's stdlib.
func (r *reachLoader) stdlibRoots() ([]*types.Interface, error) {
	f, err := parser.ParseFile(r.fset, "stdlib_interfaces.go", stdlibInterfaces, 0)
	if err != nil {
		return nil, err
	}
	pkg, err := (&types.Config{Importer: r.std}).Check("roots", r.fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	var out []*types.Interface
	for _, name := range pkg.Scope().Names() {
		out = append(out, pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface))
	}
	return out, nil
}

type reachPkg struct {
	pkg   *types.Package
	files []*ast.File
}

func (r *reachLoader) Import(path string) (*types.Package, error) {
	if path != r.mod && !strings.HasPrefix(path, r.mod+"/") {
		return r.std.Import(path)
	}
	p, err := r.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

// load type-checks the package at import path once per file set; a
// directory with no Go files in the file set loads as an empty package.
func (r *reachLoader) load(path string) (*reachPkg, error) {
	if p, ok := r.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(r.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, r.mod), "/")))
	bp, err := r.ctxt.ImportDir(dir, 0)
	if _, ok := err.(*build.NoGoError); ok {
		r.pkgs[path] = &reachPkg{}
		return r.pkgs[path], nil
	}
	if err != nil {
		return nil, err
	}
	p := &reachPkg{}
	for _, name := range bp.GoFiles {
		file := filepath.Join(dir, name)
		f := r.files[file]
		if f == nil {
			if f, err = parser.ParseFile(r.fset, file, nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			r.files[file] = f
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: r, Sizes: types.SizesFor("gc", r.ctxt.GOARCH)}
	if p.pkg, err = conf.Check(path, r.fset, p.files, r.info); err != nil {
		return nil, fmt.Errorf("GOARCH=%s: %w", r.ctxt.GOARCH, err)
	}
	r.pkgs[path] = p
	return p, nil
}

// reachDecl is one function of the file set being walked.
type reachDecl struct {
	decl    *ast.FuncDecl
	reached bool
}

// walk returns every function declaration of the loaded packages,
// marked reached or not.
func (r *reachLoader) walk() map[*types.Func]*reachDecl {
	decls := map[*types.Func]*reachDecl{}
	var named []*types.Named // the module's non-interface named types
	var roots []ast.Node
	for _, p := range r.pkgs {
		if p.pkg == nil {
			continue
		}
		for _, name := range p.pkg.Scope().Names() {
			if tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					decls[r.info.Defs[d.Name].(*types.Func)] = &reachDecl{decl: d}
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.pkg.Name() == "main") {
						roots = append(roots, d.Name)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						roots = append(roots, d)
					}
				}
			}
		}
	}
	var queue []ast.Node
	mark := func(fn *types.Func) {
		if d := decls[fn.Origin()]; d != nil && !d.reached {
			d.reached = true
			if d.decl.Body != nil {
				queue = append(queue, d.decl.Body)
			}
		}
	}
	type call struct {
		iface *types.Interface
		name  string
	}
	called := map[call]bool{} // interface methods already dispatched
	dispatch := func(iface *types.Interface, m *types.Func) {
		if c := (call{iface, m.Name()}); !called[c] {
			called[c] = true
			for _, n := range named {
				if implements(n, iface) {
					if sel := types.NewMethodSet(types.NewPointer(n)).Lookup(m.Pkg(), m.Name()); sel != nil {
						mark(sel.Obj().(*types.Func))
					}
				}
			}
		}
	}
	for _, iface := range r.roots {
		for i := 0; i < iface.NumMethods(); i++ {
			dispatch(iface, iface.Method(i))
		}
	}
	for _, root := range roots {
		if id, ok := root.(*ast.Ident); ok {
			mark(r.info.Defs[id].(*types.Func))
			continue
		}
		queue = append(queue, root)
	}
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := r.info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				dispatch(recv.Type().Underlying().(*types.Interface), fn)
			} else {
				mark(fn)
			}
			return true
		})
	}
	return decls
}

// implements reports whether n or *n implements iface. A generic type
// implements it when it has a method of every name iface has, since
// some instantiation may match the signatures.
func implements(n *types.Named, iface *types.Interface) bool {
	ptr := types.NewPointer(n)
	if n.TypeParams().Len() == 0 {
		return types.Implements(n, iface) || types.Implements(ptr, iface)
	}
	ms := types.NewMethodSet(ptr)
	for i := 0; i < iface.NumMethods(); i++ {
		if m := iface.Method(i); ms.Lookup(m.Pkg(), m.Name()) == nil {
			return false
		}
	}
	return true
}

// funcName is the name the allowlist and failures use: the package's
// path below the module (without internal/), the receiver's type name
// for a method, and the function's name, joined by dots.
func (r *reachLoader) funcName(fn *types.Func) string {
	pkg := strings.TrimPrefix(strings.TrimPrefix(fn.Pkg().Path(), r.mod+"/"), "internal/")
	if pkg == r.mod {
		pkg = path.Base(r.mod)
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		pkg += "." + t.(*types.Named).Obj().Name()
	}
	return pkg + "." + fn.Name()
}

// allowReason is the form every allowlist reason takes.
var allowReason = regexp.MustCompile(`^test oracle: (Test[A-Za-z0-9_]+)$`)

// reachProblems returns what fails the test: unreached functions the
// allowlist does not name, and entries without a valid reason, naming no
// function, naming a reached one or citing a test the tree lacks.
func reachProblems(funcs []*reachFunc, allow map[string]string, tests map[string]bool) []string {
	var out []string
	named := map[string][]*reachFunc{}
	for _, f := range funcs {
		named[f.name] = append(named[f.name], f)
		if _, listed := allow[f.name]; !f.reached && !listed {
			out = append(out, fmt.Sprintf("%s (%s) is reached from no binary: delete it, move it into a _test.go, or list it in testdata/reach_allow.txt with a reason", f.name, f.pos))
		}
	}
	names := make([]string, 0, len(allow))
	for name := range allow {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		decls := named[name]
		m := allowReason.FindStringSubmatch(allow[name])
		switch {
		case len(decls) == 0:
			out = append(out, fmt.Sprintf("allowlist names %s, which the tree does not declare", name))
			continue
		case m == nil:
			out = append(out, fmt.Sprintf("allowlist entry %s (%s) has no reason: want \"test oracle: <Test>\", got %q", name, decls[0].pos, allow[name]))
		case !tests[m[1]]:
			out = append(out, fmt.Sprintf("allowlist entry %s (%s) cites %s, which no _test.go declares", name, decls[0].pos, m[1]))
		}
		if !slices.ContainsFunc(decls, func(f *reachFunc) bool { return !f.reached }) {
			out = append(out, fmt.Sprintf("allowlist entry %s (%s) is reached from a binary: drop the entry", name, decls[0].pos))
		}
	}
	return out
}

// readAllowlist reads "name reason" lines; blank lines and # comments
// are skipped.
func readAllowlist(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if _, dup := allow[name]; dup {
			return nil, fmt.Errorf("%s lists %s twice", path, name)
		}
		allow[name] = strings.TrimSpace(reason)
	}
	return allow, sc.Err()
}

// testFuncs returns the names of every Test function the module's
// _test.go files declare.
func testFuncs(root string) (map[string]bool, error) {
	tests := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func (Test[A-Za-z0-9_]*)\(`)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		b, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(b, -1) {
			tests[string(m[1])] = true
		}
		return err
	})
	return tests, err
}

func TestEveryFunctionReached(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows the type-check; CI runs this test in a non-race step")
	}
	funcs, err := reachModule(".")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist(filepath.Join("testdata", "reach_allow.txt"))
	if err != nil {
		t.Fatal(err)
	}
	tests, err := testFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range reachProblems(funcs, allow, tests) {
		t.Error(p)
	}
}

// TestReachRules runs the analysis over testdata/reach, a module holding
// one function per rule, and checks the exact unreached set.
func TestReachRules(t *testing.T) {
	funcs, err := reachModule(filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, f := range funcs {
		got[f.name] = f.reached
	}
	for _, c := range []struct {
		name    string
		reached bool
		why     string
	}{
		{"cmd/app.main", true, "a binary's main is a root"},
		{"lib.init", true, "an init is a root"},
		{"lib.Square.Area", true, "called only through the Shape interface"},
		{"lib.Square.Side", false, "a method no body names"},
		{"lib.Square.String", true, "a stdlib interface method"},
		{"lib.Counter.Inc", true, "a method value passed as a func"},
		{"lib.Counter.Area", false, "Shape's method name, but Counter is no Shape"},
		{"lib.Counter.Len", false, "a Len on a type that is no sort.Interface"},
		{"lib.Wrapped.Error", true, "an error type's Error"},
		{"lib.Wrapped.Unwrap", true, "an Unwrap only errors.Is calls"},
		{"lib.armOnly", true, "called only from an arm64-tagged file"},
		{"lib.ArchHook", true, "declared once per architecture"},
		{"lib.buildTable", true, "called in a package-level var initializer"},
		{"lib.Generic", true, "a generic function, called instantiated"},
		{"lib.Box.Get", true, "a method of a generic type"},
		{"lib.testHelper", false, "only lib_test.go calls it"},
		{"lib.Dead", false, "exported, but nothing calls it"},
	} {
		if reached, ok := got[c.name]; !ok {
			t.Errorf("%s: not found", c.name)
		} else if reached != c.reached {
			t.Errorf("%s: reached = %v, want %v (%s)", c.name, reached, c.reached, c.why)
		}
	}
	var unreached []string
	for _, f := range funcs {
		if !f.reached {
			unreached = append(unreached, f.name)
		}
	}
	slices.Sort(unreached)
	if want := []string{"lib.Counter.Area", "lib.Counter.Len", "lib.Dead", "lib.Square.Side", "lib.testHelper"}; !slices.Equal(unreached, want) {
		t.Errorf("unreached = %v, want %v", unreached, want)
	}
}

// TestReachAllowlistRules checks what reachProblems flags in an
// allowlist.
func TestReachAllowlistRules(t *testing.T) {
	funcs := []*reachFunc{
		{name: "graph.Oracle", pos: "internal/graph/a.go:1"},
		{name: "graph.Live", pos: "internal/graph/a.go:5", reached: true},
	}
	tests := map[string]bool{"TestOracle": true}
	for _, c := range []struct {
		allow map[string]string
		want  string // a substring of the one problem, or "" for none
	}{
		{map[string]string{"graph.Oracle": "test oracle: TestOracle"}, ""},
		{map[string]string{"graph.Oracle": "decided by ROADMAP item 18"}, "has no reason"},
		{map[string]string{}, "graph.Oracle (internal/graph/a.go:1) is reached from no binary"},
		{map[string]string{"graph.Oracle": ""}, "graph.Oracle (internal/graph/a.go:1) has no reason"},
		{map[string]string{"graph.Oracle": "kept for later"}, "has no reason"},
		{map[string]string{"graph.Oracle": "test oracle: TestNoSuch"}, "cites TestNoSuch"},
		{map[string]string{"graph.Oracle": "test oracle: TestOracle", "graph.Live": "test oracle: TestOracle"}, "graph.Live (internal/graph/a.go:5) is reached from a binary"},
		{map[string]string{"graph.Oracle": "test oracle: TestOracle", "graph.Gone": "test oracle: TestOracle"}, "graph.Gone, which the tree does not declare"},
	} {
		got := reachProblems(funcs, c.allow, tests)
		switch {
		case c.want == "" && len(got) != 0:
			t.Errorf("%v: %q, want no problem", c.allow, got)
		case c.want != "" && (len(got) != 1 || !strings.Contains(got[0], c.want)):
			t.Errorf("%v: %q, want one problem containing %q", c.allow, got, c.want)
		}
	}
}

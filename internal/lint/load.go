package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Unit is one loaded analysis unit: a package together with its in-package
// test files, or an external _test package. Units are what analyzers see.
type Unit struct {
	// Path is the import path ("lecopt/internal/dist"; external test
	// packages carry a "_test" suffix).
	Path string
	// Files are the type-checked syntax trees, with comments.
	Files []*ast.File
	// Pkg is the type-checked package object.
	Pkg *types.Package
	// Info holds the type-checker's expression/identifier facts.
	Info *types.Info
}

// Module is a fully parsed and type-checked set of units sharing one
// FileSet. Analyzers may memoize module-wide indexes (e.g. a call graph)
// in the cache.
type Module struct {
	// Path is the root package's import path: the module path, or a
	// fixture's first package.
	Path string
	// Fset positions every file in every unit.
	Fset *token.FileSet
	// Units lists analysis units in deterministic (path) order.
	Units []*Unit

	cache sync.Map // analyzer-private memoized indexes, keyed by string
}

// cached memoizes a module-wide index under key: the first caller's build
// result is stored and every later caller receives it.
func (m *Module) cached(key string, build func() any) any {
	if v, ok := m.cache.Load(key); ok {
		return v
	}
	v := build()
	actual, _ := m.cache.LoadOrStore(key, v)
	return actual
}

// testFile reports whether pos lies in a _test.go file.
func (m *Module) testFile(pos token.Pos) bool {
	return strings.HasSuffix(m.Fset.Position(pos).Filename, "_test.go")
}

// loader resolves import paths against an ordered list of source roots
// (earlier roots shadow later ones — the fixture harness puts its
// testdata/src tree first) and falls back to the stdlib source importer.
// Each package is type-checked twice: a pure (non-test) variant used to
// resolve imports, which breaks the test-import cycles `go test` breaks
// the same way, and an augmented variant including in-package test files,
// which is what analyzers inspect.
type loader struct {
	fset  *token.FileSet
	roots []srcRoot
	std   types.Importer
	pure  map[string]*types.Package
	files map[string][]*ast.File // parsed non-test files per path
	tests map[string][]*ast.File // parsed test files per path
	ctx   build.Context
}

// srcRoot maps the import-path prefix to a directory tree of packages.
type srcRoot struct {
	prefix string // "" or "lecopt"
	dir    string
}

func newLoader(roots []srcRoot) *loader {
	fset := token.NewFileSet()
	ctx := build.Default
	// The loader reads files itself; the context is used only for build
	// -constraint evaluation (skip //go:build race files, _goos suffixes).
	return &loader{
		fset:  fset,
		roots: roots,
		std:   importer.ForCompiler(fset, "source", nil),
		pure:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		tests: map[string][]*ast.File{},
		ctx:   ctx,
	}
}

// dirFor resolves an import path to a directory, if any root contains it.
func (l *loader) dirFor(path string) (string, bool) {
	for _, r := range l.roots {
		rel := path
		if r.prefix != "" {
			if path == r.prefix {
				rel = "."
			} else if strings.HasPrefix(path, r.prefix+"/") {
				rel = strings.TrimPrefix(path, r.prefix+"/")
			} else {
				continue
			}
		}
		dir := filepath.Join(r.dir, filepath.FromSlash(rel))
		if ents, err := os.ReadDir(dir); err == nil {
			for _, e := range ents {
				if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
					return dir, true
				}
			}
		}
	}
	return "", false
}

// parseDir parses the buildable .go files of dir into non-test and test
// lists, memoized per import path.
func (l *loader) parseDir(path, dir string) error {
	if _, done := l.files[path]; done {
		return nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var files, tests []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if ok, err := l.ctx.MatchFile(dir, name); err != nil || !ok {
			continue // excluded by build constraints (e.g. //go:build race)
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return err
		}
		if strings.HasSuffix(name, "_test.go") {
			tests = append(tests, f)
		} else {
			files = append(files, f)
		}
	}
	l.files[path], l.tests[path] = files, tests
	return nil
}

// Import type-checks the pure variant of path (module-local or stdlib),
// implementing types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pure[path]; ok {
		return pkg, nil
	}
	dir, ok := l.dirFor(path)
	if !ok {
		return l.std.Import(path)
	}
	if err := l.parseDir(path, dir); err != nil {
		return nil, err
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, l.files[path], nil)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	l.pure[path] = pkg
	return pkg, nil
}

// newInfo allocates the fact maps analyzers rely on.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

// loadUnits produces the analysis units for path: the augmented package
// (pure + in-package test files) and, if present, the external _test
// package. The pure variant must already be checked.
func (l *loader) loadUnits(path string) ([]*Unit, error) {
	files, tests := l.files[path], l.tests[path]
	base := ""
	if len(files) > 0 {
		base = files[0].Name.Name
	} else if len(tests) > 0 {
		base = strings.TrimSuffix(tests[0].Name.Name, "_test")
	}
	var inPkg, extPkg []*ast.File
	for _, f := range tests {
		if f.Name.Name == base {
			inPkg = append(inPkg, f)
		} else {
			extPkg = append(extPkg, f)
		}
	}
	var units []*Unit
	if len(files)+len(inPkg) > 0 {
		all := append(append([]*ast.File{}, files...), inPkg...)
		info := newInfo()
		conf := types.Config{Importer: l}
		pkg, err := conf.Check(path, l.fset, all, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s (with tests): %w", path, err)
		}
		units = append(units, &Unit{Path: path, Files: all, Pkg: pkg, Info: info})
	}
	if len(extPkg) > 0 {
		info := newInfo()
		conf := types.Config{Importer: l}
		pkg, err := conf.Check(path+"_test", l.fset, extPkg, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s_test: %w", path, err)
		}
		units = append(units, &Unit{Path: path + "_test", Files: extPkg, Pkg: pkg, Info: info})
	}
	return units, nil
}

// modulePath reads the module path from root's go.mod.
func modulePath(root string) (string, error) {
	src, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(src), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s/go.mod", root)
}

// findModuleRoot walks upward from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// discoverPackages walks a root and returns the import paths of every
// directory containing .go files, skipping testdata and hidden trees.
func discoverPackages(prefix, root string) ([]string, error) {
	seen := map[string]bool{}
	var paths []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || (strings.HasPrefix(name, ".") && p != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		ip := prefix
		if rel != "." {
			ip = prefix + "/" + filepath.ToSlash(rel)
		}
		if !seen[ip] {
			seen[ip] = true
			paths = append(paths, ip)
		}
		return nil
	})
	sort.Strings(paths)
	return paths, err
}

// LoadModule parses and type-checks every package of the module rooted at
// (or above) dir, including test files, and returns the analysis units.
// The result is independent of load order: units come back sorted by path.
func LoadModule(dir string) (*Module, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	l := newLoader([]srcRoot{{prefix: mod, dir: root}})
	paths, err := discoverPackages(mod, root)
	if err != nil {
		return nil, err
	}
	m := &Module{Path: mod, Fset: l.fset}
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			return nil, err
		}
		units, err := l.loadUnits(p)
		if err != nil {
			return nil, err
		}
		m.Units = append(m.Units, units...)
	}
	return m, nil
}

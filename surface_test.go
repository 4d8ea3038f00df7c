package lecopt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportedCeiling caps the library's exported surface: ROADMAP aim 2's
// second figure. Lower it when a change removes exports; raising it needs
// the new names to pay for themselves.
const exportedCeiling = 462

// TestExportedSurface counts the exported identifiers of the library — top-level
// funcs and methods, types, vars and consts, not struct fields — over every
// non-test Go file outside bench/, testdata/ and package main, and fails
// above exportedCeiling.
func TestExportedSurface(t *testing.T) {
	n := 0
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path == "bench" || name == "testdata" || (path != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			return nil
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Name.IsExported() {
					n++
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() {
							n++
						}
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							if name.IsExported() {
								n++
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
	t.Logf("exported identifiers: %d (ceiling %d)", n, exportedCeiling)
	if n > exportedCeiling {
		t.Errorf("%d exported identifiers exceed the ceiling of %d", n, exportedCeiling)
	}
}

// reproductionOnly are the module packages the library must not link: the
// page engine, its storage and buffer pool, and the workload generators
// and serving simulator that drive them. They serve the commands and the
// repo benchmark; no exported name of the library hands one out.
var reproductionOnly = []string{
	"lecopt/internal/engine",
	"lecopt/internal/storage",
	"lecopt/internal/buffer",
	"lecopt/internal/workload",
}

// TestLibraryLinksNoEngine walks the non-test import closure of the root
// package through the module's own packages and fails if it reaches a
// reproductionOnly package (or one below it).
func TestLibraryLinksNoEngine(t *testing.T) {
	const module = "lecopt"
	fset := token.NewFileSet()
	importer := map[string]string{module: ""} // module package -> first importer seen
	for queue := []string{module}; len(queue) > 0; queue = queue[1:] {
		pkg := queue[0]
		dir := filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(pkg, module), "/"))
		if dir == "" {
			dir = "."
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.HasPrefix(path, module+"/") {
					continue
				}
				if _, ok := importer[path]; !ok {
					importer[path] = pkg
					queue = append(queue, path)
				}
			}
		}
	}
	linked := make([]string, 0, len(importer))
	for pkg := range importer {
		linked = append(linked, pkg)
	}
	sort.Strings(linked)
	for _, pkg := range linked {
		for _, bad := range reproductionOnly {
			if pkg == bad || strings.HasPrefix(pkg, bad+"/") {
				t.Errorf("the library links %s (imported by %s)", pkg, importer[pkg])
			}
		}
	}
	t.Logf("the library links %d internal packages", len(linked)-1)
}

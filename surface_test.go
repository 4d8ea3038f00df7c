package lecopt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// exportedCeiling caps the library's exported surface: ROADMAP aim 2's
// second figure. Lower it when a change removes exports; raising it needs
// the new names to pay for themselves.
const exportedCeiling = 472

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

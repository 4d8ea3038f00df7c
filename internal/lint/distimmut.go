package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// distImmutAnalyzer enforces the dist.Dist / dist.Chain immutability law.
// Memoized catalog fingerprints, the plan cache's env-law digests and the
// batch dedup keys all assume a law never changes after construction; a
// single in-place mutation silently poisons every cache keyed on it.
//
// The compiler already stops other packages from touching the unexported
// fields, but it cannot stop code *inside* internal/dist — and because
// Dist has value receivers over shared backing slices, an innocent-looking
// `d.vals[i] *= f` in a new method would mutate the original law, not a
// copy. So the rule is: a write to a Dist/Chain field (or through its
// backing slices) is legal only inside the blessed constructors, which
// fill a fresh, unshared value before it escapes:
//
//	dist.New        — builds the merged, normalized law
//	dist.newInto    — New's body, over fresh storage or a dist.Slab's
//	dist.Sticky     — fills the fresh chain's rows
//	dist.RandomWalk — fills the fresh chain's rows
//
// Everything else — new dist code, test setup, any other package that
// somehow obtains access — must build a new law instead.
var distImmutAnalyzer = &Analyzer{
	Name: "distimmut",
	Doc:  "dist.Dist/dist.Chain laws are immutable after construction; only the blessed constructors may write their fields",
	Run:  runDistImmut,
}

// distConstructors may fill the fields of a law they are constructing.
// Only free functions declared in internal/dist itself qualify.
var distConstructors = map[string]bool{
	"New": true, "newInto": true, "Sticky": true, "RandomWalk": true,
}

func runDistImmut(pass *Pass) {
	info := pass.Unit.Info
	inDist := strings.HasSuffix(pass.Unit.Path, "internal/dist")
	for _, f := range pass.Unit.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			exempt := inDist && fd.Recv == nil && distConstructors[fd.Name.Name]
			if exempt {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range st.Lhs {
						checkLawWrite(pass, info, lhs)
					}
				case *ast.IncDecStmt:
					checkLawWrite(pass, info, st.X)
				}
				return true
			})
		}
	}
}

// checkLawWrite reports lhs if the written location is a field of a
// Dist/Chain value (directly, or through index/deref chains into its
// backing slices).
func checkLawWrite(pass *Pass, info *types.Info, lhs ast.Expr) {
	for {
		switch e := lhs.(type) {
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			sel, ok := info.Selections[e]
			if ok && sel.Kind() == types.FieldVal && isLawType(sel.Recv()) {
				pass.reportf(e.Pos(),
					"write to %s field %s outside a dist constructor — laws are immutable, build a fresh Dist/Chain instead",
					lawTypeName(sel.Recv()), e.Sel.Name)
				return
			}
			lhs = e.X // keep walking: x.law.vals is a write into a law too
		default:
			return
		}
	}
}

// isLawType reports whether t (after pointer unwrapping) is dist.Dist or
// dist.Chain from an internal/dist package.
func isLawType(t types.Type) bool { return lawTypeName(t) != "" }

// lawTypeName names the law type ("dist.Dist"/"dist.Chain"), or "".
func lawTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	if !strings.HasSuffix(named.Obj().Pkg().Path(), "internal/dist") {
		return ""
	}
	switch named.Obj().Name() {
	case "Dist", "Chain":
		return "dist." + named.Obj().Name()
	}
	return ""
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// determinismAnalyzer pins the repo-wide reproducibility contract that the
// differential corpus, the golden E1–E20 tables and the batch==sequential
// byte-identity proof all assume:
//
//  1. every use of math/rand flows through an explicitly seeded
//     rand.New(rand.NewSource(seed)) generator — the package-level helpers
//     (rand.Intn, rand.Float64, …) draw from a process-global source;
//  2. no seed is derived from the wall clock (rand.NewSource(time.Now()…)
//     smuggles nondeterminism past rule 1);
//  3. no range over a map emits its iteration-order-dependent keys or
//     values (via append or fmt printing) from a function that never
//     sorts — Go randomizes map iteration order per run, so such output
//     differs run to run.
//
// This analyzer subsumes the old regex-based TestNoUnseededRand scan and
// is type-resolved: rng.Intn on a *rand.Rand value is fine, rand.Intn on
// the global source is not, and aliased or dot imports cannot hide a call.
var determinismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "seeded randomness only: no global math/rand source, no wall-clock seeds, no unsorted map-order emission",
	Run:  runDeterminism,
}

// seededConstructors are the math/rand entry points that are fine at
// package level because they only build explicitly seeded generators.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 spellings, should the module ever migrate.
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) {
	info := pass.Unit.Info
	for _, f := range pass.Unit.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			path := fn.Pkg().Path()
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // method on an explicit *rand.Rand / Source value
			}
			if !seededConstructors[fn.Name()] {
				pass.reportf(call.Pos(),
					"%s.%s draws from the process-global source; use an explicitly seeded rand.New(rand.NewSource(seed))",
					path, fn.Name())
				return true
			}
			// Rule 2: a seeded constructor fed from the wall clock.
			for _, arg := range call.Args {
				if now := findTimeNow(info, arg); now != nil {
					pass.reportf(now.Pos(),
						"wall-clock seed: %s.%s derives its seed from time.Now, which destroys run-to-run reproducibility",
						path, fn.Name())
				}
			}
			return true
		})
		checkMapOrderEmission(pass, f)
	}
}

// calleeFunc resolves a call's static callee, or nil (builtin, func value,
// type conversion, unresolved interface method).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// findTimeNow returns the first time.Now call inside expr, if any. It
// does not descend into nested seeded-constructor calls — those are
// visited (and reported) in their own right, so rand.New(rand.NewSource(
// time.Now().UnixNano())) yields exactly one finding.
func findTimeNow(info *types.Info, expr ast.Expr) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(expr, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "time":
			if fn.Name() == "Now" {
				found = call
				return false
			}
		case "math/rand", "math/rand/v2":
			if seededConstructors[fn.Name()] {
				return false // reported when the walker reaches it directly
			}
		}
		return true
	})
	return found
}

// checkMapOrderEmission implements rule 3 for every function in the file.
// The heuristic is deliberately conservative: a range over a map is
// flagged only when its body appends the loop key/value (or data derived
// from them in the same expression) to a slice, or prints them through
// fmt, while the enclosing function contains no sort call at all. A
// function that collects keys and sorts them — the repo's canonical
// pattern — is never flagged.
func checkMapOrderEmission(pass *Pass, f *ast.File) {
	info := pass.Unit.Info
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if functionSorts(info, fd.Body) {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := info.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			loopVars := rangeVarObjects(info, rng)
			if len(loopVars) == 0 {
				return true // `for range m`: order cannot escape
			}
			if pos, what := findOrderEmission(info, rng.Body, loopVars); pos.IsValid() {
				pass.reportf(pos,
					"%s inside a map range emits iteration-order-dependent data and the enclosing function never sorts; sort the emitted slice (or iterate over sorted keys)",
					what)
				return false
			}
			return true
		})
	}
}

// functionSorts reports whether body contains any call into sort or
// slices' sorting functions.
func functionSorts(info *types.Info, body *ast.BlockStmt) bool {
	sorts := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sorts {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "sort":
				sorts = true
			case "slices":
				if len(fn.Name()) >= 4 && fn.Name()[:4] == "Sort" {
					sorts = true
				}
			}
		}
		return !sorts
	})
	return sorts
}

// rangeVarObjects returns the objects bound to the range's key/value.
func rangeVarObjects(info *types.Info, rng *ast.RangeStmt) []types.Object {
	var objs []types.Object
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if obj := info.Defs[id]; obj != nil {
			objs = append(objs, obj)
		} else if obj := info.Uses[id]; obj != nil {
			objs = append(objs, obj) // `k = range m` over a pre-declared var
		}
	}
	return objs
}

// findOrderEmission scans a map-range body for an append or fmt call whose
// arguments reference a loop variable, returning its position and a label.
func findOrderEmission(info *types.Info, body *ast.BlockStmt, loopVars []types.Object) (pos token.Pos, what string) {
	ast.Inspect(body, func(n ast.Node) bool {
		if pos.IsValid() {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		label := ""
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
				label = "append"
			}
		}
		if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			label = "fmt." + fn.Name()
		}
		if label == "" {
			return true
		}
		for _, arg := range call.Args {
			if referencesAny(info, arg, loopVars) {
				pos, what = call.Pos(), label
				return false
			}
		}
		return true
	})
	return pos, what
}

// referencesAny reports whether expr mentions any of the given objects.
func referencesAny(info *types.Info, expr ast.Expr, objs []types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			use := info.Uses[id]
			for _, o := range objs {
				if use == o {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

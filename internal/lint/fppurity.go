package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// fingerprintPurityAnalyzer protects the cache-key integrity claim: the
// drift-banded plan cache, the batch dedup pass and the prepared-statement
// reuse all key on catalog.Fingerprint / BandedFingerprint and
// query Block.Canonical, and the statement memo keys on
// catalog.AppendSchemaDigest. Those digests must be pure functions of the
// catalog statistics and the query block — if any function reachable from
// them reads package-level mutable state, consults the clock or the
// global RNG, or emits map-iteration-order-dependent bytes, two identical
// catalogs can hash differently (cache misses at best) or two different
// catalogs identically (serving a stale plan as a hit, corrupting the
// realized LEC/LSC measurements).
//
// The analyzer reads the module's reference graph (the one the reach
// analyzer builds), marks every function reachable from the fingerprint
// entry points, and reports inside that set:
//
//   - reads or writes of package-level mutable variables (error-typed
//     sentinels exempt — they are write-once by convention);
//   - calls into time.Now, os.*, or math/rand;
//   - map ranges whose key/value escapes into append/fmt output from a
//     function that never sorts (same heuristic as the determinism
//     analyzer, but unconditional within the reachable set).
//
// The graph follows static calls and function and method values; a call
// through an interface reaches every method of that name on a reached type.
var fingerprintPurityAnalyzer = &Analyzer{
	Name: "fppurity",
	Doc:  "functions reachable from catalog.Fingerprint/BandedFingerprint and Block.Canonical must be pure",
	Run:  runFingerprintPurity,
}

// fpEntries are the digest roots whose full call trees must stay pure.
var fpEntries = []objKey{
	{"lecopt/internal/catalog", "Catalog", "Fingerprint"},
	{"lecopt/internal/catalog", "Catalog", "BandedFingerprint"},
	{"lecopt/internal/catalog", "Catalog", "AppendFingerprint"},
	{"lecopt/internal/catalog", "Catalog", "AppendSchemaDigest"},
	{"lecopt/internal/query", "Block", "Canonical"},
}

// fpReached computes the declarations reachable from the fingerprint
// entry points on the module's reference graph, memoized on the module.
func fpReached(m *Module) map[objKey]bool {
	return m.cached("fppurity.reached", func() any { return moduleGraph(m).reach(fpEntries) }).(map[objKey]bool)
}

func runFingerprintPurity(pass *Pass) {
	reached := fpReached(pass.Module)
	info := pass.Unit.Info
	pkg := strings.TrimSuffix(pass.Unit.Path, "_test")
	for _, f := range pass.Unit.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !reached[funcKey(pkg, fd)] {
				continue
			}
			checkPurity(pass, info, fd)
		}
	}
}

// impureCallers maps package path -> banned function name ("" = any).
var impureCallers = map[string]string{
	"time":         "Now",
	"os":           "",
	"math/rand":    "",
	"math/rand/v2": "",
}

// checkPurity reports impurities inside one reachable function.
func checkPurity(pass *Pass, info *types.Info, fd *ast.FuncDecl) {
	where := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.Ident:
			obj, ok := info.Uses[e].(*types.Var)
			if !ok || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
				return true
			}
			if isErrorType(obj.Type()) {
				return true // write-once sentinel errors
			}
			pass.reportf(e.Pos(),
				"%s is reachable from a fingerprint entry point but touches package-level mutable state %s.%s — digests must be pure functions of their inputs",
				where, obj.Pkg().Name(), obj.Name())
		case *ast.CallExpr:
			fn := calleeFunc(info, e)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			banned, ok := impureCallers[fn.Pkg().Path()]
			if ok && (banned == "" || banned == fn.Name()) {
				pass.reportf(e.Pos(),
					"%s is reachable from a fingerprint entry point but calls %s.%s — digests must not depend on clock, environment or global RNG",
					where, fn.Pkg().Name(), fn.Name())
			}
		}
		return true
	})
	// Map-order emission is unconditional here: a digest that writes
	// map-ordered bytes is broken even if some sort happens elsewhere in
	// the function, but the shared conservative heuristic (skip sorting
	// functions) keeps the canonical collect-then-sort pattern legal.
	if functionSorts(info, fd.Body) {
		return
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
			return true
		}
		if pos, what := findOrderEmission(info, rng.Body, loopVars); pos.IsValid() {
			pass.reportf(pos,
				"%s is reachable from a fingerprint entry point and %s emits map-iteration-order-dependent bytes without sorting",
				where, what)
			return false
		}
		return true
	})
}

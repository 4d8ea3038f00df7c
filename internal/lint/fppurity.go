package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// FingerprintPurityAnalyzer protects the cache-key integrity claim: the
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
// The analyzer builds a static call graph over the whole module, marks
// every function reachable from the fingerprint entry points, and reports
// inside that set:
//
//   - reads or writes of package-level mutable variables (error-typed
//     sentinels exempt — they are write-once by convention);
//   - calls into time.Now, os.*, or math/rand;
//   - map ranges whose key/value escapes into append/fmt output from a
//     function that never sorts (same heuristic as the determinism
//     analyzer, but unconditional within the reachable set).
//
// The graph follows static calls only: calls through interfaces or
// function values are not traced. That is the usual soundness trade of a
// lightweight analyzer — reviews must keep dynamic dispatch off the
// fingerprint paths (today there is none).
var FingerprintPurityAnalyzer = &Analyzer{
	Name: "fppurity",
	Doc:  "functions reachable from catalog.Fingerprint/BandedFingerprint and Block.Canonical must be pure",
	Run:  runFingerprintPurity,
}

// fpEntry names one fingerprint entry point.
type fpEntry struct {
	pkgSuffix string // import-path suffix
	recv      string // receiver type name ("" for free functions)
	name      string
}

// fpEntries are the digest roots whose full call trees must stay pure.
var fpEntries = []fpEntry{
	{"internal/catalog", "Catalog", "Fingerprint"},
	{"internal/catalog", "Catalog", "BandedFingerprint"},
	{"internal/catalog", "Catalog", "AppendFingerprint"},
	{"internal/catalog", "Catalog", "AppendSchemaDigest"},
	{"internal/query", "Block", "Canonical"},
}

// funcKey identifies a module function across type-check variants (the
// augmented and pure checks produce distinct types.Func objects for the
// same declaration, so identity must be by name, not pointer).
type funcKey struct {
	pkg  string // import path
	recv string // receiver type name, "" for free functions
	name string
}

// reachableFuncs computes the set of module functions reachable from the
// fingerprint entry points, memoized on the module.
func reachableFuncs(m *Module) map[funcKey]bool {
	v := m.Cached("fppurity.reachable", func() any {
		calls := map[funcKey][]funcKey{}
		for _, u := range m.Units {
			for _, f := range u.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					from := declKey(u, fd)
					ast.Inspect(fd.Body, func(n ast.Node) bool {
						call, ok := n.(*ast.CallExpr)
						if !ok {
							return true
						}
						if fn := calleeFunc(u.Info, call); fn != nil && fn.Pkg() != nil {
							calls[from] = append(calls[from], keyOf(fn))
						}
						return true
					})
				}
			}
		}
		reach := map[funcKey]bool{}
		var queue []funcKey
		for _, u := range m.Units {
			for _, f := range u.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok {
						continue
					}
					k := declKey(u, fd)
					for _, e := range fpEntries {
						if strings.HasSuffix(k.pkg, e.pkgSuffix) && k.recv == e.recv && k.name == e.name {
							reach[k] = true
							queue = append(queue, k)
						}
					}
				}
			}
		}
		for len(queue) > 0 {
			k := queue[0]
			queue = queue[1:]
			out := append([]funcKey(nil), calls[k]...)
			sort.Slice(out, func(i, j int) bool {
				a, b := out[i], out[j]
				return a.pkg < b.pkg || a.pkg == b.pkg && (a.recv < b.recv || a.recv == b.recv && a.name < b.name)
			})
			for _, next := range out {
				if !reach[next] {
					reach[next] = true
					queue = append(queue, next)
				}
			}
		}
		return reach
	})
	return v.(map[funcKey]bool)
}

// declKey keys a function declaration in a unit.
func declKey(u *Unit, fd *ast.FuncDecl) funcKey {
	k := funcKey{pkg: strings.TrimSuffix(u.Path, "_test"), name: fd.Name.Name}
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		k.recv = recvTypeName(fd.Recv.List[0].Type)
	}
	return k
}

// recvTypeName extracts the receiver's type name from its AST.
func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return ""
}

// keyOf keys a resolved callee.
func keyOf(fn *types.Func) funcKey {
	k := funcKey{pkg: fn.Pkg().Path(), name: fn.Name()}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			k.recv = named.Obj().Name()
		}
	}
	return k
}

func runFingerprintPurity(pass *Pass) {
	reach := reachableFuncs(pass.Module)
	info := pass.Unit.Info
	for _, f := range pass.Unit.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !reach[declKey(pass.Unit, fd)] {
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
			pass.Reportf(e.Pos(),
				"%s is reachable from a fingerprint entry point but touches package-level mutable state %s.%s — digests must be pure functions of their inputs",
				where, obj.Pkg().Name(), obj.Name())
		case *ast.CallExpr:
			fn := calleeFunc(info, e)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			banned, ok := impureCallers[fn.Pkg().Path()]
			if ok && (banned == "" || banned == fn.Name()) {
				pass.Reportf(e.Pos(),
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
			pass.Reportf(pos,
				"%s is reachable from a fingerprint entry point and %s emits map-iteration-order-dependent bytes without sorting",
				where, what)
			return false
		}
		return true
	})
}

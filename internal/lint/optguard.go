package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// optGuardAnalyzer generalizes the old internal/workload AST guard to the
// whole module: since PR 5 the executor has a real index access path, so
// no optimizer.Options composite literal may hardcode DisableIndexes: true
// and quietly shrink the plan space again. Heap-only runs are a *spec*
// decision — MixSpec.DisableIndexes, `lecbench -workload -noindex` —
// threaded through Mix.planOpts, never a literal. The lawful exceptions
// (explicit heap-only comparison arms in tests, whose point is the
// contrast itself) carry a justified //leclint:allow optguard directive.
var optGuardAnalyzer = &Analyzer{
	Name: "optguard",
	Doc:  "no hardcoded optimizer.Options{DisableIndexes: true}; heap-only runs are spec decisions",
	Run:  runOptGuard,
}

func runOptGuard(pass *Pass) {
	info := pass.Unit.Info
	for _, f := range pass.Unit.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || !isOptimizerOptions(info, lit) {
				return true
			}
			for _, el := range lit.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || key.Name != "DisableIndexes" {
					continue
				}
				if tv, ok := info.Types[kv.Value]; ok && tv.Value != nil &&
					tv.Value.Kind() == constant.Bool && constant.BoolVal(tv.Value) {
					pass.reportf(kv.Pos(),
						"hardcoded optimizer.Options{DisableIndexes: true} — route heap-only runs through the workload spec (MixSpec.DisableIndexes / -noindex), not a literal")
				}
			}
			return true
		})
	}
}

// isOptimizerOptions reports whether the composite literal's type is the
// optimizer package's Options struct (resolved through the type-checker,
// so aliases and dot imports cannot hide it).
func isOptimizerOptions(info *types.Info, lit *ast.CompositeLit) bool {
	tv, ok := info.Types[lit]
	if !ok {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Options" &&
		strings.HasSuffix(named.Obj().Pkg().Path(), "internal/optimizer")
}

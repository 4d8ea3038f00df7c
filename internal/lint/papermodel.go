package lint

import (
	"go/ast"
	"strings"
)

// paperModelAnalyzer guards the golden tables' cost machine: since the
// engine-exact grace-hash model (cost.ModelEngine) exists, the serving
// path opts into it, but internal/experiments must keep costing with the
// paper's formulas — the E1–E20 tables are *defined* by them, and
// cost.ModelPaper is deliberately the zero value so the experiments get
// it by construction. Two patterns would silently break that: referring
// to cost.ModelEngine at all, or setting the optimizer.Options.CostModel
// key in a composite literal (even to ModelPaper — the zero value is the
// contract, an explicit key invites the wrong edit). Both are findings
// inside any package whose import path ends in internal/experiments,
// including its test files.
var paperModelAnalyzer = &Analyzer{
	Name: "papermodel",
	Doc:  "internal/experiments costs with the paper model: no cost.ModelEngine, no CostModel key",
	Run:  runPaperModel,
}

func runPaperModel(pass *Pass) {
	if !strings.HasSuffix(strings.TrimSuffix(pass.Unit.Path, "_test"), "internal/experiments") {
		return
	}
	info := pass.Unit.Info
	for _, f := range pass.Unit.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				obj := info.Uses[n]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				if obj.Name() == "ModelEngine" && strings.HasSuffix(obj.Pkg().Path(), "internal/cost") {
					pass.reportf(n.Pos(),
						"cost.ModelEngine referenced in internal/experiments — the published E1–E20 tables are defined by the paper formulas; engine-exact charging belongs to the serving path")
				}
			case *ast.CompositeLit:
				if !isOptimizerOptions(info, n) {
					return true
				}
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "CostModel" {
						pass.reportf(kv.Pos(),
							"optimizer.Options.CostModel set in internal/experiments — experiments rely on the zero value (cost.ModelPaper) to keep the golden tables byte-identical")
					}
				}
			}
			return true
		})
	}
}

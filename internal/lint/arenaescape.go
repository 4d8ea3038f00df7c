package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ArenaEscapeAnalyzer guards the pooled-DP-scratch contract introduced by
// the zero-alloc hot path: the optimizer's dynamic program builds its join
// nodes in the scratch's arena, which is rewound and reused when the scratch
// returns to its sync.Pool, so a plan assigned into a Result must be
// deep-copied first — a raw arena pointer in a Result is a use-after-reset
// that manifests as a silently mutated plan on some later optimization.
// Every subset DP — single-plan, top-c and distributional — runs on that
// scratch, Algorithm B's top-c lists and Algorithm D's size laws included,
// and every plan's scan leaves are the access nodes of the pooled per-request
// context (ctx), which the next request refills. The check is deliberately
// narrow: only functions that touch the pooled machinery (dpScratch,
// nodeArena, topList, lawSlab, getScratch, ctx) are held to it, so
// functions that build plans from nodes they own stay free to share them.
var ArenaEscapeAnalyzer = &Analyzer{
	Name: "arenaescape",
	Doc:  "plans leaving DP-scratch-touching optimizer functions via Result must be Clone()d; arena nodes are recycled on release",
	Run:  runArenaEscape,
}

// scratchTypeNames are the pooled types whose presence marks a function as
// arena-touching.
var scratchTypeNames = map[string]bool{
	"dpScratch": true,
	"nodeArena": true,
	"topList":   true,
	"lawSlab":   true,
	"ctx":       true,
}

func runArenaEscape(pass *Pass) {
	if !strings.HasSuffix(pass.Unit.Path, "internal/optimizer") {
		return
	}
	info := pass.Unit.Info
	for _, f := range pass.Unit.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !touchesScratch(info, fn) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok || !isOptimizerResult(info, lit) {
					return true
				}
				for _, el := range lit.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Plan" {
						continue
					}
					if !isClonedPlan(kv.Value) {
						pass.Reportf(kv.Pos(),
							"Result.Plan set without Clone() in a function that touches the pooled DP scratch — arena nodes are recycled on release and must never escape into a Result")
					}
				}
				return true
			})
		}
	}
}

// touchesScratch reports whether the function mentions any pooled-scratch
// type or calls getScratch.
func touchesScratch(info *types.Info, fn *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if id.Name == "getScratch" {
			found = true
			return false
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if obj != nil && obj.Type() != nil && isScratchType(obj.Type()) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isScratchType unwraps pointers and slices and reports whether the core
// named type is one of the pooled-scratch types.
func isScratchType(t types.Type) bool {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Slice:
			t = tt.Elem()
		case *types.Named:
			return scratchTypeNames[tt.Obj().Name()]
		default:
			return false
		}
	}
}

// isOptimizerResult reports whether the composite literal's type is the
// optimizer package's Result struct.
func isOptimizerResult(info *types.Info, lit *ast.CompositeLit) bool {
	tv, ok := info.Types[lit]
	if !ok {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Result" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/optimizer")
}

// isClonedPlan accepts nil and any *.Clone(...) call as a safe Plan value.
func isClonedPlan(e ast.Expr) bool {
	if id, ok := e.(*ast.Ident); ok && id.Name == "nil" {
		return true
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Clone"
}

package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// errDropAnalyzer bans discarded error returns in the packages that charge
// I/O: internal/engine, internal/storage and internal/buffer. Both BENCH
// artifacts report PhaseIO totals measured by these packages; an error
// silently dropped on a read/walk/fetch path means the corresponding I/O
// was mis-charged (or a failure mis-read as cheap execution), corrupting
// exactly the realized-cost numbers the LEC<=LSC claims are pinned to.
//
// Flagged forms, in non-test files of the covered packages:
//
//	f(...)        // expression statement whose callee returns an error
//	x, _ := f(...) // error position assigned to blank
//	defer f(...)  // deferred call whose error vanishes
//	go f(...)     // spawned call whose error vanishes
//
// Intentional drops must carry //leclint:allow errdrop -- <why>.
var errDropAnalyzer = &Analyzer{
	Name: "errdrop",
	Doc:  "no discarded error returns in internal/engine, internal/storage, internal/buffer (the I/O-charging paths)",
	Run:  runErrDrop,
}

// errDropPackages are the covered import-path suffixes.
var errDropPackages = []string{
	"internal/engine", "internal/storage", "internal/buffer",
}

func runErrDrop(pass *Pass) {
	covered := false
	p := strings.TrimSuffix(pass.Unit.Path, "_test")
	for _, suffix := range errDropPackages {
		if strings.HasSuffix(p, suffix) {
			covered = true
			break
		}
	}
	if !covered {
		return
	}
	info := pass.Unit.Info
	for _, f := range pass.Unit.Files {
		if pass.Module.testFile(f.Pos()) {
			continue // test files assert through t.Fatal; production paths only
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					checkDroppedCall(pass, info, call, "result of call discarded")
				}
			case *ast.DeferStmt:
				checkDroppedCall(pass, info, st.Call, "deferred call's error discarded")
			case *ast.GoStmt:
				checkDroppedCall(pass, info, st.Call, "goroutine call's error discarded")
			case *ast.AssignStmt:
				checkBlankError(pass, info, st)
			}
			return true
		})
	}
}

// checkDroppedCall reports call if its result set includes an error.
func checkDroppedCall(pass *Pass, info *types.Info, call *ast.CallExpr, label string) {
	if i := errResultIndex(info, call); i >= 0 {
		pass.reportf(call.Pos(), "%s: %s returns an error that is never checked — on the I/O-charging paths a dropped error miscounts the work the BENCH artifacts report",
			label, callName(call))
	}
}

// checkBlankError reports `..., _ = f(...)` where the blank sits in an
// error-typed result position.
func checkBlankError(pass *Pass, info *types.Info, st *ast.AssignStmt) {
	if len(st.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
	if !ok || len(st.Lhs) < 2 {
		return
	}
	i := errResultIndex(info, call)
	if i < 0 || i >= len(st.Lhs) {
		return
	}
	if id, ok := st.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
		pass.reportf(id.Pos(), "error result of %s assigned to _ — handle it or justify with an allow directive",
			callName(call))
	}
}

// errResultIndex returns the index of the error-typed result of call, or
// -1 if the call returns no error (or is a conversion/builtin).
func errResultIndex(info *types.Info, call *ast.CallExpr) int {
	tv, ok := info.Types[call]
	if !ok {
		return -1
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return i
			}
		}
	default:
		if isErrorType(tv.Type) {
			// Distinguish a call returning error from a conversion to an
			// error type: conversions have a type operand, calls a func.
			if _, isConv := info.Types[call.Fun]; isConv && info.Types[call.Fun].IsType() {
				return -1
			}
			return 0
		}
	}
	return -1
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// callName renders a short name for diagnostics (pkg.F, recv.M, or the
// expression's last identifier).
func callName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}

package lint

import (
	"go/types"
	"strings"
)

// allowPrefix introduces a suppression directive:
//
//	//leclint:allow <analyzer> -- <justification>
//
// A directive waives findings from <analyzer> on its own line or, when it
// stands alone on a line, on the next line. The justification is
// mandatory — a bare directive is converted into a finding of its own, so
// every suppression in the tree carries its reason next to it (the ISSUE's
// "no silent suppressions" rule).
const allowPrefix = "//leclint:allow"

// directive is one parsed allow comment.
type directive struct {
	analyzer      string
	justification string
	file          string
	line          int // line the directive sits on
}

// parseDirectives extracts every allow directive in the module, in
// deterministic order.
func parseDirectives(m *Module) []directive {
	var ds []directive
	for _, u := range m.Units {
		for _, f := range u.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, allowPrefix)
					if !ok {
						continue
					}
					pos := m.Fset.Position(c.Pos())
					d := directive{file: pos.Filename, line: pos.Line}
					// A trailing "// ..." (e.g. a fixture's want
					// expectation) is not part of the directive.
					if i := strings.Index(rest, "//"); i >= 0 {
						rest = rest[:i]
					}
					rest = strings.TrimSpace(rest)
					if name, just, ok := strings.Cut(rest, "--"); ok {
						d.analyzer = strings.TrimSpace(name)
						d.justification = strings.TrimSpace(just)
					} else {
						d.analyzer = strings.TrimSpace(rest)
					}
					ds = append(ds, d)
				}
			}
		}
	}
	return ds
}

// applyDirectives removes diagnostics waived by a well-formed directive
// and reports malformed directives (missing analyzer name, unknown
// analyzer, or empty justification) as findings so suppressions can never
// silently rot.
func applyDirectives(m *Module, diags []Diagnostic) []Diagnostic {
	var extra []Diagnostic
	emit := func(d Diagnostic) {
		d.Pos.Filename, d.Pos.Line, d.Pos.Column = d.File, d.Line, d.Column
		extra = append(extra, d)
	}
	ds := parseDirectives(m)
	valid := make([]directive, 0, len(ds))
	for _, d := range ds {
		switch {
		case d.analyzer == "":
			emit(Diagnostic{
				Analyzer: "leclint", File: d.file, Line: d.line, Column: 1,
				Message: "allow directive names no analyzer (want //leclint:allow <analyzer> -- <justification>)",
			})
		case ByName(d.analyzer) == nil:
			emit(Diagnostic{
				Analyzer: "leclint", File: d.file, Line: d.line, Column: 1,
				Message: "allow directive names unknown analyzer " + d.analyzer,
			})
		case d.justification == "":
			emit(Diagnostic{
				Analyzer: "leclint", File: d.file, Line: d.line, Column: 1,
				Message: "allow directive for " + d.analyzer + " has no justification — suppressions must say why",
			})
		case d.analyzer == "reach" && !namesTest(m, d.justification):
			emit(Diagnostic{
				Analyzer: "leclint", File: d.file, Line: d.line, Column: 1,
				Message: "allow directive for reach must name the test that uses the declaration as an oracle (-- test oracle: TestName)",
			})
		default:
			valid = append(valid, d)
		}
	}
	kept := diags[:0]
	for _, diag := range diags {
		waived := false
		for _, d := range valid {
			if d.analyzer == diag.Analyzer && d.file == diag.File &&
				(d.line == diag.Line || d.line == diag.Line-1) {
				waived = true
				break
			}
		}
		if !waived {
			kept = append(kept, diag)
		}
	}
	return append(kept, extra...)
}

// namesTest reports whether a reach justification reads "test oracle:
// <Name>" for a test or fuzz target declared in the module.
func namesTest(m *Module, justification string) bool {
	name, ok := strings.CutPrefix(justification, "test oracle: ")
	if !ok || !strings.HasPrefix(name, "Test") && !strings.HasPrefix(name, "Fuzz") {
		return false
	}
	for _, u := range m.Units {
		if fn, ok := u.Pkg.Scope().Lookup(name).(*types.Func); ok && m.testFile(fn.Pos()) {
			return true
		}
	}
	return false
}

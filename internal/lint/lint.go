// Package lint is the repo's typed static-analysis suite: it parses and
// type-checks the whole module once (stdlib go/parser + go/types only, per
// the module's zero-dependency rule) and runs a registry of analyzers over
// every package, each emitting positioned diagnostics.
//
// The analyzers encode invariants the compiler cannot see but every
// empirical claim in BENCH_workload.json rests on: seeded randomness only
// (batch==sequential byte-identity), immutable dist.Dist/dist.Chain laws
// (memoized fingerprints assume laws never mutate), pure fingerprint inputs
// (drift-banded cache keys), no hardcoded DisableIndexes regressions (the
// serving plan space stays honest), and no silently dropped errors on the
// I/O-charging paths; reach and exportuse bar code only tests reach and
// exports no other package names (DESIGN.md "Static invariants").
//
// Suppressions are explicit and justified: a finding may be waived only by
// a same-line or preceding-line directive
//
//	//leclint:allow <analyzer> -- <justification>
//
// and a directive with an empty justification is itself a finding.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Analyzer is one named invariant check. Run is invoked once per loaded
// unit (a package including its in-package test files, or an external
// _test package) and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
	Name string
	// Doc is a one-line description of the invariant enforced.
	Doc string
	// Run inspects one unit. Cross-unit state (e.g. a module-wide call
	// graph) is memoized on the Module.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one unit.
type Pass struct {
	Analyzer *Analyzer
	Module   *Module
	Unit     *Unit

	report func(Diagnostic)
}

// reportf records a finding at pos.
func (p *Pass) reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Module.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one positioned finding.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Column   int            `json:"column"`
	Message  string         `json:"message"`
}

// String renders the conventional file:line:col: [analyzer] message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzers returns the full registry in a fixed order. Every analyzer
// listed here runs under cmd/leclint, the lint_test.go module gate, and
// the CI leclint lane.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		determinismAnalyzer,
		distImmutAnalyzer,
		optGuardAnalyzer,
		fingerprintPurityAnalyzer,
		errDropAnalyzer,
		paperModelAnalyzer,
		arenaEscapeAnalyzer,
		reachAnalyzer,
		exportUseAnalyzer,
	}
}

// ByName returns the registered analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run executes the analyzers over every unit of the module, applies the
// //leclint:allow directives (an unjustified directive is converted into a
// finding), and returns the surviving diagnostics sorted by position.
func Run(m *Module, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	collect := func(d Diagnostic) {
		d.File, d.Line, d.Column = d.Pos.Filename, d.Pos.Line, d.Pos.Column
		diags = append(diags, d)
	}
	for _, u := range m.Units {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Module: m, Unit: u, report: collect}
			a.Run(pass)
		}
	}
	diags = applyDirectives(m, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

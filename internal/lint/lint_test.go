package lint

import (
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// fixture runs one analyzer over a testdata/src fixture package and
// verifies the // want expectations: each seeded violation must be
// reported, each true negative must stay silent.
func fixture(t *testing.T, importPath string, analyzers ...string) {
	t.Helper()
	m, err := LoadFixture("testdata", importPath)
	if err != nil {
		t.Fatal(err)
	}
	var as []*Analyzer
	for _, name := range analyzers {
		a := ByName(name)
		if a == nil {
			t.Fatalf("unknown analyzer %q", name)
		}
		as = append(as, a)
	}
	for _, problem := range CheckFixture(m, as) {
		t.Error(problem)
	}
}

func TestDeterminismFixture(t *testing.T) {
	fixture(t, "determinism", "determinism")
}

func TestDistImmutFixture(t *testing.T) {
	fixture(t, "lecopt/internal/dist", "distimmut")
}

func TestFingerprintPurityCatalogFixture(t *testing.T) {
	fixture(t, "lecopt/internal/catalog", "fppurity")
}

func TestFingerprintPurityCanonicalFixture(t *testing.T) {
	fixture(t, "lecopt/internal/query", "fppurity")
}

func TestErrDropFixture(t *testing.T) {
	fixture(t, "lecopt/internal/engine", "errdrop")
}

func TestPaperModelFixture(t *testing.T) {
	fixture(t, "lecopt/internal/experiments", "papermodel")
}

// TestReachFixture seeds one dead declaration of each kind beside the
// true negatives a name-based reference graph must keep: a method reached
// through an interface call, a function passed as a value, an init, a var
// initializer, an exported method of a root-aliased type and a String
// method; one oracle allow is honoured and one that names no test is not.
func TestReachFixture(t *testing.T) {
	m, err := LoadFixture("testdata", "reachmod", "reachmod/internal/lib", "reachmod/cmd/tool")
	if err != nil {
		t.Fatal(err)
	}
	for _, problem := range CheckFixture(m, []*Analyzer{reachAnalyzer}) {
		t.Error(problem)
	}
}

// TestExportUseFixture seeds unused exports of each kind beside the true
// negatives: an export the root package names, one only another package's
// test names, a type named only in a used function's signature and one
// named only by its exported field, an interface method, a String method,
// an exported method of a root-aliased type, and an allowed finding.
func TestExportUseFixture(t *testing.T) {
	m, err := LoadFixture("testdata", "exportmod", "exportmod/internal/lib", "exportmod/internal/other")
	if err != nil {
		t.Fatal(err)
	}
	for _, problem := range CheckFixture(m, []*Analyzer{exportUseAnalyzer}) {
		t.Error(problem)
	}
}

// TestReachSplit logs ROADMAP aim 2's size figure split on the reach
// graph: serving lines are the declarations reachable from lecopt.New and
// the exported methods of Optimizer and Prepared; reproduction lines are
// those only the commands and examples reach. The rest is what only the
// root package's other API and bench/ reach. Lines are declaration spans
// outside bench/, doc comments excluded.
func TestReachSplit(t *testing.T) {
	m := RepoModule(t)
	g := moduleGraph(m)
	serving := []objKey{{pkg: m.Path, name: "New"}}
	for _, typ := range []string{"Optimizer", "Prepared"} {
		for _, k := range g.methods[objKey{pkg: m.Path + "/internal/core", name: typ}] {
			if ast.IsExported(k.name) {
				serving = append(serving, k)
			}
		}
	}
	var mains []objKey
	for _, k := range g.roots {
		if k.name == "main" && (strings.HasPrefix(k.pkg, m.Path+"/cmd/") || strings.HasPrefix(k.pkg, m.Path+"/examples/")) {
			mains = append(mains, k)
		}
	}
	serve, repro, all := g.reach(serving), g.reach(mains), g.reach(g.roots)
	var nServe, nRepro, nOther int
	for k, ok := range all {
		if !ok || k.pkg == m.Path+"/bench" {
			continue
		}
		switch {
		case serve[k]:
			nServe += g.lines[k]
		case repro[k]:
			nRepro += g.lines[k]
		default:
			nOther += g.lines[k]
		}
	}
	if nServe == 0 || nRepro == 0 {
		t.Fatalf("empty split: serving %d, reproduction %d", nServe, nRepro)
	}
	t.Logf("declaration lines: serving %d, reproduction %d, other API %d", nServe, nRepro, nOther)
}

// moduleOnce loads and type-checks the real module once per test binary.
var moduleOnce = sync.OnceValues(func() (*Module, error) {
	return LoadModule(".")
})

// RepoModule returns the loaded real module for tests (here and in the
// thin shim determinism_test.go keeps at the root).
func RepoModule(t *testing.T) *Module {
	t.Helper()
	m, err := moduleOnce()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestModuleInvariants is the gate that makes plain `go test ./...` fail
// on any leclint finding, mirroring the CI `go run ./cmd/leclint ./...`
// lane.
func TestModuleInvariants(t *testing.T) {
	diags := Run(RepoModule(t), Analyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("%d invariant violation(s); fix them or add a justified //leclint:allow directive", len(diags))
	}
}

// TestModuleCoverage guards the audit's own reach: the loader must keep
// seeing the packages whose invariants the analyzers exist to protect. A
// future skip-rule tweak that silently exempts one of these would gut the
// suite exactly where it matters.
func TestModuleCoverage(t *testing.T) {
	m := RepoModule(t)
	seen := map[string]bool{}
	for _, u := range m.Units {
		seen[u.Path] = true
	}
	for _, mustSee := range []string{
		"lecopt",
		"lecopt/cmd/lecbench",
		"lecopt/internal/catalog",
		"lecopt/internal/core",
		"lecopt/internal/dist",
		"lecopt/internal/engine",
		"lecopt/internal/envsim",
		"lecopt/internal/feedback",
		"lecopt/internal/optimizer",
		"lecopt/internal/plancache",
		"lecopt/internal/query",
		"lecopt/internal/resilience",
		"lecopt/internal/storage",
		"lecopt/internal/workload",
		"lecopt/internal/workload/fleet",
		"lecopt/internal/workload/serving",
	} {
		if !seen[mustSee] {
			t.Errorf("module load no longer covers %s", mustSee)
		}
	}
}

// TestRegistry pins the analyzer roster: the suite's invariants must all
// stay registered, and names must be unique (directives key on them).
func TestRegistry(t *testing.T) {
	want := []string{"determinism", "distimmut", "fppurity", "errdrop", "papermodel", "reach", "exportuse"}
	got := map[string]bool{}
	for _, a := range Analyzers() {
		if got[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		got[a.Name] = true
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc line", a.Name)
		}
	}
	for _, name := range want {
		if !got[name] {
			t.Errorf("analyzer %q missing from registry", name)
		}
	}
}

// TestDirectiveValidation pins the no-silent-suppressions rule end to
// end on the determinism fixture, which seeds both a justified (waiving)
// and an unjustified (non-waiving, self-reported) directive.
func TestDirectiveValidation(t *testing.T) {
	m, err := LoadFixture("testdata", "determinism")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(filepath.Join("testdata", "src", "determinism", "determinism.go"))
	if err != nil {
		t.Fatal(err)
	}
	lineOf := func(directive string) int {
		for i, l := range strings.Split(string(src), "\n") {
			if strings.TrimSpace(l) == directive || strings.HasPrefix(strings.TrimSpace(l), directive+" ") {
				return i + 1
			}
		}
		t.Fatalf("fixture has no %q line", directive)
		return 0
	}
	justified := lineOf("//leclint:allow determinism --")
	bare := lineOf("//leclint:allow determinism //")
	var sawUnjustified, sawSurvivor bool
	for _, d := range Run(m, []*Analyzer{ByName("determinism")}) {
		switch {
		case d.Analyzer == "leclint" && d.Line == bare && strings.Contains(d.Message, "no justification"):
			sawUnjustified = true
		case d.Analyzer == "determinism" && d.Line == bare+1:
			sawSurvivor = true
		case d.Line == justified || d.Line == justified+1:
			t.Errorf("justified directive did not waive: %s", d)
		}
	}
	if !sawUnjustified {
		t.Error("unjustified allow directive was not itself reported")
	}
	if !sawSurvivor {
		t.Error("the finding an unjustified directive tried to waive should survive")
	}
}

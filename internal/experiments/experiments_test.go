package experiments

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"lecopt/internal/catalog"
	"lecopt/internal/dist"
	"lecopt/internal/optimizer"
	"lecopt/internal/query"
)

// TestAllExperimentsPass runs the complete harness: every experiment must
// execute and its qualitative claim must hold. This is the repository's
// single most important integration test — it is the paper reproduction.
func TestAllExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite is not short")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run()
			if err != nil {
				t.Fatalf("%s failed to run: %v", e.ID, err)
			}
			if tab.ID != e.ID {
				t.Fatalf("table ID %q != experiment ID %q", tab.ID, e.ID)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			if !tab.Pass {
				var buf bytes.Buffer
				_ = tab.Render(&buf)
				t.Fatalf("%s claim FAILED:\n%s", e.ID, buf.String())
			}
		})
	}
}

func TestAllRegistryOrdered(t *testing.T) {
	exps := All()
	if len(exps) != 20 {
		t.Fatalf("want 20 experiments, got %d", len(exps))
	}
	for i, e := range exps {
		if numOf(e.ID) != i+1 {
			t.Fatalf("experiment %d out of order: %s", i, e.ID)
		}
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("e5")
	if err != nil || e.ID != "E5" {
		t.Fatalf("ByID: %v %v", e, err)
	}
	if _, err := ByID("E99"); !errors.Is(err, errUnknownExperiment) {
		t.Fatal("unknown experiment")
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{
		ID:      "EX",
		Title:   "demo",
		Headers: []string{"col", "value"},
		Rows:    [][]string{{"a", "1"}, {"bb", "22"}},
		Notes:   []string{"a note"},
		Pass:    true,
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"EX — demo", "col", "bb", "note: a note", "claim: PASS"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("render missing %q:\n%s", frag, out)
		}
	}
	tab.Pass = false
	buf.Reset()
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "claim: FAIL") {
		t.Fatal("FAIL marker missing")
	}
}

func TestExample11Scenario(t *testing.T) {
	cat, blk, err := Example11()
	if err != nil {
		t.Fatal(err)
	}
	if err := blk.Validate(cat); err != nil {
		t.Fatal(err)
	}
	// The reverse-engineered distinct count reproduces the 3000-page result.
	sigma, err := cat.JoinPageSelectivity("A", "k", "B", "k")
	if err != nil {
		t.Fatal(err)
	}
	pages := sigma * 1_000_000 * 400_000
	if pages < 2999 || pages > 3001 {
		t.Fatalf("result pages = %v, want ≈3000", pages)
	}
}

// TestJointEvalMatchesAnalytic: for a plan with point laws everywhere, the
// joint evaluator must equal the standard expected-cost evaluation.
func TestJointEvalMatchesAnalytic(t *testing.T) {
	cat, blk, err := Example11()
	if err != nil {
		t.Fatal(err)
	}
	mem := dist.MustNew([]float64{700, 2000}, []float64{0.2, 0.8})
	res, err := optimizer.AlgorithmC(cat, blk, Example11Opts(), mem)
	if err != nil {
		t.Fatal(err)
	}
	je := &jointEval{
		blk:      blk,
		sizeLaws: map[string]dist.Dist{},
		selLaws:  map[string]dist.Dist{optimizer.EdgeKey(blk.Joins[0]): dist.Point(3000.0 / (1_000_000 * 400_000))},
		mem:      mem,
	}
	got := je.ec(res.Plan)
	want, err := paperCost(res.Plan, []dist.Dist{mem})
	if err != nil {
		t.Fatal(err)
	}
	if !relClose(got, want) {
		t.Fatalf("jointEval %v vs ExpectedCost %v", got, want)
	}
}

// TestJointEvalSizeUncertainty: with a two-point size law, the joint EC is
// the probability mix of the two degenerate evaluations.
func TestJointEvalSizeUncertainty(t *testing.T) {
	cat := catalog.New()
	if err := cat.AddTable(catalog.MustTable("a", 1000, 100_000,
		catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: 100_000, Min: 0, Max: 1e9})); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(catalog.MustTable("b", 500, 50_000,
		catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: 50_000, Min: 0, Max: 1e9})); err != nil {
		t.Fatal(err)
	}
	blk := &query.Block{
		Tables: []string{"a", "b"},
		Joins: []query.Join{{
			Left:  query.ColRef{Table: "a", Column: "k"},
			Right: query.ColRef{Table: "b", Column: "k"},
		}},
	}
	if err := blk.Validate(cat); err != nil {
		t.Fatal(err)
	}
	mem := dist.Point(50)
	res, err := optimizer.LSC(cat, blk, optimizer.Options{}, 50)
	if err != nil {
		t.Fatal(err)
	}
	sizeLaw := dist.MustNew([]float64{600, 1400}, []float64{0.5, 0.5})
	edge := optimizer.EdgeKey(blk.Joins[0])
	mk := func(sz dist.Dist) float64 {
		je := &jointEval{
			blk:      blk,
			sizeLaws: map[string]dist.Dist{"a": sz},
			selLaws:  map[string]dist.Dist{edge: dist.Point(1e-6)},
			mem:      mem,
		}
		return je.ec(res.Plan)
	}
	mixed := mk(sizeLaw)
	lo := mk(dist.Point(600))
	hi := mk(dist.Point(1400))
	if !relClose(mixed, 0.5*lo+0.5*hi) {
		t.Fatalf("mix %v vs %v", mixed, 0.5*lo+0.5*hi)
	}
}

func TestFmtHelpers(t *testing.T) {
	if fmtF(3) != "3" {
		t.Fatalf("fmtF(3) = %q", fmtF(3))
	}
	if fmtF(0.5) != "0.5000" {
		t.Fatalf("fmtF(0.5) = %q", fmtF(0.5))
	}
	if fmtF(123456.7) != "1.235e+05" {
		t.Fatalf("fmtF(123456.7) = %q", fmtF(123456.7))
	}
	if fmtRatio(1.23456) != "1.235" {
		t.Fatalf("fmtRatio = %q", fmtRatio(1.23456))
	}
}

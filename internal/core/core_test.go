package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"lecopt/internal/catalog"
	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/envsim"
	"lecopt/internal/optimizer"
	"lecopt/internal/sqlmini"
)

// paperScenario is Example 1.1 through the façade, built from mini-SQL.
func paperScenario(t *testing.T) *Scenario {
	t.Helper()
	cat := catalog.New()
	v := 4e13 / 3000.0
	if err := cat.AddTable(catalog.MustTable("a", 1_000_000, 100_000_000,
		catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: v, Min: 0, Max: 1e12})); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(catalog.MustTable("b", 400_000, 40_000_000,
		catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: 1000, Min: 0, Max: 1e12})); err != nil {
		t.Fatal(err)
	}
	blk, err := sqlmini.ParseAndValidate("SELECT * FROM a, b WHERE a.k = b.k ORDER BY a.k", cat)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := dist.Bimodal(700, 2000, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	return &Scenario{
		Cat:   cat,
		Query: blk,
		Env:   envsim.Env{Mem: mem},
		Opts:  optimizer.Options{Methods: []cost.JoinMethod{cost.SortMerge, cost.GraceHash}},
	}
}

func TestScenarioChecks(t *testing.T) {
	var nilSc *Scenario
	if _, err := nilSc.Optimize(AlgC); !errors.Is(err, errNilScenario) {
		t.Fatal("nil scenario")
	}
	sc := &Scenario{}
	if _, err := sc.Optimize(AlgC); !errors.Is(err, errNilScenario) {
		t.Fatal("empty scenario")
	}
	good := paperScenario(t)
	if _, err := good.Optimize(Algorithm(99)); !errors.Is(err, ErrUnknownAlg) {
		t.Fatal("unknown algorithm")
	}
}

func TestCompareReproducesPaperStory(t *testing.T) {
	sc := paperScenario(t)
	reports, err := sc.Compare(AlgLSCMean, AlgLSCMode, AlgA, AlgB, AlgC)
	if err != nil {
		t.Fatal(err)
	}
	byAlg := map[Algorithm]PlanReport{}
	for _, r := range reports {
		byAlg[r.Algorithm] = r
	}
	for _, lsc := range []Algorithm{AlgLSCMean, AlgLSCMode} {
		if !strings.Contains(byAlg[lsc].Plan.Signature(), "sort-merge") {
			t.Fatalf("%s should pick plan 1, got %s", lsc, byAlg[lsc].Plan.Signature())
		}
	}
	for _, lec := range []Algorithm{AlgA, AlgB, AlgC} {
		if !strings.Contains(byAlg[lec].Plan.Signature(), "grace-hash") {
			t.Fatalf("%s should pick plan 2, got %s", lec, byAlg[lec].Plan.Signature())
		}
		if byAlg[lec].EC >= byAlg[AlgLSCMean].EC {
			t.Fatalf("%s EC %v should beat LSC %v", lec, byAlg[lec].EC, byAlg[AlgLSCMean].EC)
		}
	}
	// The report's Score for Algorithm C is the same yardstick as EC.
	c := byAlg[AlgC]
	if math.Abs(c.Score-c.EC) > 1e-6*c.EC {
		t.Fatalf("AlgC score %v vs EC %v", c.Score, c.EC)
	}
}

func TestAlgorithmStrings(t *testing.T) {
	want := map[Algorithm]string{
		AlgLSCMean: "lsc-mean", AlgLSCMode: "lsc-mode",
		AlgA: "algorithm-a", AlgB: "algorithm-b", AlgC: "algorithm-c", AlgD: "algorithm-d",
	}
	for a, s := range want {
		if a.String() != s {
			t.Fatalf("%d: %q", a, a.String())
		}
	}
	if Algorithm(77).String() == "" {
		t.Fatal("unknown alg string")
	}
	if len(Algorithms) != 6 {
		t.Fatal("algorithm list")
	}
}

func TestSimulateAgreesWithEC(t *testing.T) {
	sc := paperScenario(t)
	rep, err := sc.Optimize(AlgC)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sc.Simulate(rep.Plan, 40000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(st.Mean-rep.EC) / rep.EC; rel > 0.01 {
		t.Fatalf("MC mean %v vs EC %v", st.Mean, rep.EC)
	}
}

func TestTournamentThroughFacade(t *testing.T) {
	sc := paperScenario(t)
	reports, err := sc.Compare(AlgLSCMode, AlgC)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Tournament(reports, 5000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 2 {
		t.Fatal("two entrants")
	}
	if !(res.Stats[1].Mean < res.Stats[0].Mean) {
		t.Fatalf("AlgC should win the tournament: %v vs %v", res.Stats[1].Mean, res.Stats[0].Mean)
	}
}

func TestDynamicEnvRoutesToDynamicC(t *testing.T) {
	sc := paperScenario(t)
	chain, err := dist.Sticky([]float64{700, 2000}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	sc.Env.Chain = chain
	rep, err := sc.Optimize(AlgC)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan == nil || rep.EC <= 0 {
		t.Fatal("dynamic optimization failed")
	}
	// Mismatched chain/law must surface as an env error.
	sc.Env.Mem = dist.Point(555)
	if _, err := sc.Optimize(AlgC); err == nil {
		t.Fatal("law off chain states should fail")
	}
}

func TestAlgorithmDThroughFacade(t *testing.T) {
	sc := paperScenario(t)
	sigma, err := catalog.SelectivityDist(7.5e-9, 3, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	sc.SelLaws = map[string]dist.Dist{
		optimizer.EdgeKey(sc.Query.Joins[0]): sigma,
	}
	rep, err := sc.Optimize(AlgD)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan == nil || rep.Score <= 0 {
		t.Fatal("Algorithm D failed")
	}
}

func TestCompareErrorPropagatesAlgorithmName(t *testing.T) {
	sc := paperScenario(t)
	sc.Query.Tables = append(sc.Query.Tables, "missing")
	_, err := sc.Compare(AlgC)
	if err == nil || !strings.Contains(err.Error(), "algorithm-c") {
		t.Fatalf("err = %v", err)
	}
}

func TestTopCDefault(t *testing.T) {
	sc := paperScenario(t)
	if sc.topC() != 3 {
		t.Fatal("default TopC")
	}
	sc.TopC = 7
	if sc.topC() != 7 {
		t.Fatal("explicit TopC")
	}
}

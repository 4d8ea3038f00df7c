package envsim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/optimizer"
	"lecopt/internal/plan"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v", msg, got, want)
	}
}

// paperCost is the evaluator under the paper's cost model.
func paperCost(p *plan.Node, laws []dist.Dist) (float64, error) {
	return optimizer.ExpectedCostModel(cost.ModelPaper, p, laws)
}

// twoJoinPlan builds ((a ⋈SM b) ⋈GH c) with fixed page sizes.
func twoJoinPlan() *plan.Node {
	a := plan.NewScan("a", plan.AccessHeap, "", 1, 100)
	b := plan.NewScan("b", plan.AccessHeap, "", 1, 40)
	j1 := plan.NewJoin(cost.SortMerge, a, b, 20, plan.Order{})
	c := plan.NewScan("c", plan.AccessHeap, "", 1, 30)
	return plan.NewJoin(cost.GraceHash, j1, c, 5, plan.Order{})
}

func TestEnvValidate(t *testing.T) {
	if err := (Env{}).Validate(); !errors.Is(err, errNoEnv) {
		t.Fatal("empty env")
	}
	chain, err := dist.Sticky([]float64{10, 20}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	bad := Env{Mem: dist.Point(15), Chain: chain}
	if err := bad.Validate(); err == nil {
		t.Fatal("law off the chain states should fail")
	}
	good := Env{Mem: dist.Point(10), Chain: chain}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseLawsStaticAndDynamic(t *testing.T) {
	mem := dist.MustNew([]float64{10, 20}, []float64{0.5, 0.5})
	laws, err := Env{Mem: mem}.PhaseLaws(3)
	if err != nil || len(laws) != 3 {
		t.Fatalf("static: %v %v", laws, err)
	}
	for _, l := range laws {
		if !l.ApproxEqual(mem, 0) {
			t.Fatal("static laws must repeat the initial law")
		}
	}
	chain, err := dist.Sticky([]float64{10, 20}, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	laws, err = Env{Mem: dist.Point(10), Chain: chain}.PhaseLaws(2)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, laws[1].PrAtMost(10), 0.75, 1e-12, "one-step law")
	if _, err := (Env{}).PhaseLaws(1); err == nil {
		t.Fatal("invalid env")
	}
	// n < 1 clamps to 1.
	laws, err = Env{Mem: mem}.PhaseLaws(0)
	if err != nil || len(laws) != 1 {
		t.Fatal("clamp to one phase")
	}
}

func TestSampleStaticIsConstantWithinRun(t *testing.T) {
	mem := dist.MustNew([]float64{10, 2000}, []float64{0.5, 0.5})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		seq, err := Env{Mem: mem}.Sample(rng, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) != 4 {
			t.Fatal("length")
		}
		for _, v := range seq[1:] {
			if v != seq[0] {
				t.Fatal("static env must hold memory constant within a run")
			}
		}
	}
}

// TestSimulateConvergesToExpectedCost: the Monte-Carlo mean approaches the
// analytic EC for both static and Markov environments.
func TestSimulateConvergesToExpectedCost(t *testing.T) {
	p := twoJoinPlan()
	mem := dist.MustNew([]float64{5, 12, 50}, []float64{0.3, 0.4, 0.3})

	// Static analytic EC.
	analytic, err := paperCost(p, []dist.Dist{mem})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	st, err := Simulate(p, Env{Mem: mem}, 60000, rng, paperCost)
	if err != nil {
		t.Fatal(err)
	}
	if relErr := math.Abs(st.Mean-analytic) / analytic; relErr > 0.01 {
		t.Fatalf("static MC mean %v vs analytic %v (relErr %v)", st.Mean, analytic, relErr)
	}
	if st.Min > st.Median || st.Median > st.P95 || st.P95 > st.Max {
		t.Fatalf("order statistics inconsistent: %+v", st)
	}
	if st.Runs != 60000 || st.Total <= 0 {
		t.Fatalf("bookkeeping: %+v", st)
	}

	// Dynamic: per-phase marginals.
	chain, err := dist.RandomWalk([]float64{5, 12, 50}, 0.3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	env := Env{Mem: mem, Chain: chain}
	laws, err := env.PhaseLaws(p.Phases())
	if err != nil {
		t.Fatal(err)
	}
	// Analytic EC with per-phase marginals via sequence enumeration.
	seqs, probs, err := chain.AllSeqs(mem, p.Phases())
	if err != nil {
		t.Fatal(err)
	}
	dynAnalytic := 0.0
	for i, seq := range seqs {
		c, err := paperCost(p, dist.Points(seq))
		if err != nil {
			t.Fatal(err)
		}
		dynAnalytic += probs[i] * c
	}
	_ = laws
	st2, err := Simulate(p, env, 60000, rng, paperCost)
	if err != nil {
		t.Fatal(err)
	}
	if relErr := math.Abs(st2.Mean-dynAnalytic) / dynAnalytic; relErr > 0.01 {
		t.Fatalf("dynamic MC mean %v vs analytic %v (relErr %v)", st2.Mean, dynAnalytic, relErr)
	}
}

func TestSimulateErrors(t *testing.T) {
	if _, err := Simulate(nil, Env{Mem: dist.Point(1)}, 10, rand.New(rand.NewSource(1)), paperCost); !errors.Is(err, errNoPlans) {
		t.Fatal("nil plan")
	}
	p := twoJoinPlan()
	if _, err := Simulate(p, Env{Mem: dist.Point(1)}, 0, rand.New(rand.NewSource(1)), paperCost); !errors.Is(err, errNoPlans) {
		t.Fatal("zero runs")
	}
	if _, err := Simulate(p, Env{}, 5, rand.New(rand.NewSource(1)), paperCost); err == nil {
		t.Fatal("invalid env")
	}
}

// TestTournamentCommonRandomNumbers: Example 1.1 as a tournament — Plan 2
// must win on average; per-run, Plan 1 wins 80% of the time (that's the
// paper's point: the common case favours Plan 1, the expectation doesn't).
func TestTournamentExample11(t *testing.T) {
	a := plan.NewScan("A", plan.AccessHeap, "", 1, 1_000_000)
	b := plan.NewScan("B", plan.AccessHeap, "", 1, 400_000)
	plan1 := plan.NewJoin(cost.SortMerge, a, b, 3000, plan.Order{Table: "A", Column: "k"})
	p2join := plan.NewJoin(cost.GraceHash, a.Clone(), b.Clone(), 3000, plan.Order{})
	plan2 := plan.NewSort(p2join, plan.Order{Table: "A", Column: "k"})

	mem := dist.MustNew([]float64{700, 2000}, []float64{0.2, 0.8})
	tour := &Tournament{Names: []string{"plan1-sm", "plan2-gh+sort"}, Plans: []*plan.Node{plan1, plan2}}
	res, err := tour.Run(Env{Mem: mem}, 20000, rand.New(rand.NewSource(23)), paperCost)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Stats[1].Mean < res.Stats[0].Mean) {
		t.Fatalf("plan 2 must win on average: %v vs %v", res.Stats[1].Mean, res.Stats[0].Mean)
	}
	frac1 := float64(res.Wins[0]) / 20000
	if math.Abs(frac1-0.8) > 0.02 {
		t.Fatalf("plan 1 should win ≈80%% of individual runs, got %v", frac1)
	}
	// Expected means match the formula-level analysis (join formulas
	// include the input reads; handoff scans add nothing).
	approx(t, res.Stats[0].Mean, 0.8*2.8e6+0.2*5.6e6, 2e4, "plan1 mean")
	approx(t, res.Stats[1].Mean, 2.8e6+6000, 2e4, "plan2 mean")
}

func TestTournamentValidation(t *testing.T) {
	tr := &Tournament{Names: []string{"x"}, Plans: nil}
	if _, err := tr.Run(Env{Mem: dist.Point(5)}, 5, rand.New(rand.NewSource(1)), paperCost); !errors.Is(err, errNoPlans) {
		t.Fatal("mismatched tournament")
	}
}

func TestQuantileEdge(t *testing.T) {
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Fatal("empty quantile")
	}
	if q := quantile([]float64{1, 2, 3}, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := quantile([]float64{1, 2, 3}, 1); q != 3 {
		t.Fatalf("q1 = %v", q)
	}
}

// runDigest folds every bit of a RunStats into h.
func runDigest(h io.Writer, st RunStats) {
	fmt.Fprintf(h, "%d", st.Runs)
	for _, v := range []float64{st.Mean, st.Std, st.Min, st.Max, st.P95, st.Total, st.Median} {
		fmt.Fprintf(h, "|%016x", math.Float64bits(v))
	}
	fmt.Fprint(h, "\n")
}

// TestSimulateTournamentPinned pins every bit of one Simulate and one
// Tournament run over a Markov environment: plans of one, two and three
// phases (a filtered scan, an index scan, a root sort) priced on shared
// trajectories. The digests were recorded with the plan package's own
// fixed-memory cost walk, before the evaluator over point laws replaced it.
func TestSimulateTournamentPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the digests record amd64 float bits")
	}
	states := []float64{4, 9, 30, 120, 700, 2000}
	chain, err := dist.RandomWalk(states, 0.3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	env := Env{Mem: dist.MustNew(states, []float64{1, 2, 3, 3, 2, 1}), Chain: chain}

	a := plan.NewScan("A", plan.AccessHeap, "", 1, 1_000_000)
	b := plan.NewScan("B", plan.AccessHeap, "", 1, 400_000)
	sorted := plan.NewSort(plan.NewJoin(cost.GraceHash, a, b, 3000, plan.Order{}), plan.Order{Table: "A", Column: "k"})
	f := plan.NewScan("f", plan.AccessHeap, "", 0.25, 60)
	f.Pred = &plan.ScanPred{Column: "x", Hi: 10, HasHi: true}
	ix := plan.NewScan("ix", plan.AccessIndex, "ix_k", 0.1, 8)
	ix.IO = 11
	deep := plan.NewJoin(cost.PageNL, plan.NewJoin(cost.BlockNL, twoJoinPlan(), f, 40, plan.Order{}), ix, 12, plan.Order{})

	h := fnv.New64a()
	st, err := Simulate(deep, env, 3000, rand.New(rand.NewSource(31)), paperCost)
	if err != nil {
		t.Fatal(err)
	}
	runDigest(h, st)
	if got := fmt.Sprintf("%016x", h.Sum64()); got != simulatePin {
		t.Errorf("Simulate digest %s, pinned %s", got, simulatePin)
	}

	h = fnv.New64a()
	tour := &Tournament{Names: []string{"sorted", "two", "deep"}, Plans: []*plan.Node{sorted, twoJoinPlan(), deep}}
	res, err := tour.Run(env, 3000, rand.New(rand.NewSource(37)), paperCost)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Stats {
		runDigest(h, res.Stats[i])
		fmt.Fprintf(h, "wins %d\n", res.Wins[i])
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != tournamentPin {
		t.Errorf("Tournament digest %s, pinned %s", got, tournamentPin)
	}
}

const (
	simulatePin   = "63cbb7c0f744dedd"
	tournamentPin = "33e9811b6b284c88"
)

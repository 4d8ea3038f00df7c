package lecopt

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"lecopt/internal/cost"
	"lecopt/internal/optimizer"
	"lecopt/internal/plan"
)

// TestPublicAPIQuickstart exercises the documented public surface
// end-to-end: build a catalog, parse SQL, optimize classically and with
// LEC, and compare.
func TestPublicAPIQuickstart(t *testing.T) {
	cat := NewCatalog()
	a, err := NewTable("a", 1_000_000, 100_000_000,
		Column{Name: "k", Distinct: 4e13 / 3000.0, Min: 0, Max: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(a); err != nil {
		t.Fatal(err)
	}
	b, err := NewTable("b", 400_000, 40_000_000,
		Column{Name: "k", Distinct: 1000, Min: 0, Max: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(b); err != nil {
		t.Fatal(err)
	}

	blk, err := ParseSQL("SELECT * FROM a, b WHERE a.k = b.k ORDER BY a.k", cat)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Bimodal(700, 2000, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	sc := &Scenario{Cat: cat, Query: blk, Env: Env{Mem: mem}}

	classical, err := sc.Optimize(AlgLSCMode)
	if err != nil {
		t.Fatal(err)
	}
	lec, err := sc.Optimize(AlgC)
	if err != nil {
		t.Fatal(err)
	}
	if !(lec.EC < classical.EC) {
		t.Fatalf("LEC (%v) must beat classical (%v)", lec.EC, classical.EC)
	}
	if !strings.Contains(lec.Plan.String(), "grace-hash") {
		t.Fatalf("expected grace-hash plan, got:\n%s", lec.Plan)
	}

	// ExpectedCost through the public helper agrees with the report.
	ec, err := ExpectedCost(lec.Plan, []Dist{mem})
	if err != nil {
		t.Fatal(err)
	}
	if ec != lec.EC {
		t.Fatalf("ExpectedCost %v vs report %v", ec, lec.EC)
	}
}

// TestExpectedCostRejectsShortLaws: the public evaluator takes one law
// (static, repeated for every phase) or one per phase. A chain's two-step
// marginals priced on a four-phase plan are an error, not a number that
// silently repeats the last law for the phases it lacks.
func TestExpectedCostRejectsShortLaws(t *testing.T) {
	p := plan.NewScan("t0", plan.AccessHeap, "", 1, 900)
	for i, pages := range []float64{400, 300, 200, 100} {
		p = plan.NewJoin(cost.GraceHash, p, plan.NewScan(fmt.Sprintf("t%d", i+1), plan.AccessHeap, "", 1, pages), 50, plan.Order{})
	}
	ch, err := StickyChain([]float64{10, 2000}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	laws, err := ch.PhaseLaws(PointDist(10), p.Phases())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExpectedCost(p, laws[:2]); !errors.Is(err, optimizer.ErrLawsShort) {
		t.Fatalf("2 laws for %d phases: err = %v, want ErrLawsShort", p.Phases(), err)
	}
	for _, n := range []int{1, len(laws)} {
		if _, err := ExpectedCost(p, laws[:n]); err != nil {
			t.Fatalf("%d laws for %d phases: %v", n, p.Phases(), err)
		}
	}
}

func TestPublicDistHelpers(t *testing.T) {
	p := PointDist(42)
	if p.Mean() != 42 {
		t.Fatal("PointDist")
	}
	d, err := NewDist([]float64{1, 2}, []float64{1, 3})
	if err != nil || d.Prob(1) != 0.75 {
		t.Fatalf("NewDist: %v %v", d, err)
	}
	ch, err := StickyChain([]float64{10, 20}, 0.5)
	if err != nil || ch.Len() != 2 {
		t.Fatalf("StickyChain: %v", err)
	}
	if len(Algorithms()) == 0 {
		t.Fatal("Algorithms list")
	}
}

// TestPublicRunWorkload drives the engine-in-the-loop serving simulator
// through the public façade and re-asserts the acceptance claim on a small
// fixed-seed workload: aggregate realized LEC I/O never exceeds LSC's.
func TestPublicRunWorkload(t *testing.T) {
	spec, err := DefaultWorkloadSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Queries = 8
	rep, err := RunWorkload(spec, WorkloadRun{Requests: 150, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 150 || rep.TotalLSCIO <= 0 {
		t.Fatalf("implausible report: %+v", rep)
	}
	if rep.TotalLECIO > rep.TotalLSCIO {
		t.Fatalf("realized LEC %d > LSC %d", rep.TotalLECIO, rep.TotalLSCIO)
	}
	if rep.RealizedRatio > 1 || rep.RealizedRatio <= 0 {
		t.Fatalf("ratio %v out of range", rep.RealizedRatio)
	}
	// Reproducibility through the public surface.
	again, err := RunWorkload(spec, WorkloadRun{Requests: 150, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if again.TotalLSCIO != rep.TotalLSCIO || again.TotalLECIO != rep.TotalLECIO {
		t.Fatalf("same spec+seed must reproduce: %+v vs %+v", again, rep)
	}
}

// TestUnknownJoinMethodIsATypedError: Options.Methods is caller input, and
// a method the cost formulas do not define used to reach
// cost.JoinIOModel's panic. The handle now answers every algorithm — one
// request or a batch — with optimizer.ErrBadOpts, and caches nothing for it.
func TestUnknownJoinMethodIsATypedError(t *testing.T) {
	reqs := hotPathRequests(t, 6)
	opt := New(nil, WithPlanSpace(Options{Methods: []cost.JoinMethod{cost.GraceHash, 99}}))
	algs := Algorithms()
	for i := range reqs {
		reqs[i].Alg = algs[i%len(algs)]
		if _, err := opt.Optimize(reqs[i]); !errors.Is(err, optimizer.ErrBadOpts) {
			t.Fatalf("Optimize(%v): err = %v, want ErrBadOpts", reqs[i].Alg, err)
		}
	}
	for i, resp := range opt.OptimizeBatch(reqs) {
		if !errors.Is(resp.Err, optimizer.ErrBadOpts) || resp.Plan != nil {
			t.Fatalf("OptimizeBatch[%d]: err = %v, plan = %v, want ErrBadOpts and no plan", i, resp.Err, resp.Plan)
		}
	}
	if st := opt.CacheStats(); st.Size != 0 {
		t.Fatalf("%d plans cached for requests that cannot be optimized", st.Size)
	}
	// A request that brings its own valid options is still served.
	ok := reqs[0]
	ok.Opts = &Options{}
	if _, err := opt.Optimize(ok); err != nil {
		t.Fatal(err)
	}
}

// TestErrBadStatsIsRootAPI: NewTable's refusal of a NaN statistic matches
// the root package's ErrBadStats.
func TestErrBadStatsIsRootAPI(t *testing.T) {
	if _, err := NewTable("a", math.NaN(), 100); !errors.Is(err, ErrBadStats) {
		t.Fatalf("NewTable with NaN pages: err = %v, want ErrBadStats", err)
	}
}

// TestErrBadRequestIsRootAPI: a request that names no query matches the
// root package's ErrBadRequest.
func TestErrBadRequestIsRootAPI(t *testing.T) {
	if _, err := New(nil).Optimize(Request{}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Optimize(Request{}): err = %v, want ErrBadRequest", err)
	}
}

// TestErrNoPlanIsRootAPI: NewTable admits only finite statistics, but a
// caller can write NaN pages into a table afterwards; Algorithm C then
// finds no plan of finite cost and says so with the root package's
// ErrNoPlan.
func TestErrNoPlanIsRootAPI(t *testing.T) {
	cat := NewCatalog()
	for _, name := range []string{"a", "b"} {
		tab, err := NewTable(name, 1000, 50_000, Column{Name: "k", Distinct: 5000, Min: 0, Max: 1e4})
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	tab, err := cat.Table("a")
	if err != nil {
		t.Fatal(err)
	}
	tab.Pages = math.NaN()
	mem, err := Bimodal(700, 2000, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{SQL: "SELECT * FROM a, b WHERE a.k = b.k", Env: Env{Mem: mem}, Alg: AlgC}
	if _, err := New(cat).Optimize(req); !errors.Is(err, ErrNoPlan) {
		t.Fatalf("AlgC over NaN pages: err = %v, want ErrNoPlan", err)
	}
}

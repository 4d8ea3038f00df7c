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

// TestOverflowingStatisticsRefusedByEveryAlgorithm: statistics that are
// finite one by one but overflow once multiplied (a table of 1.7e308 pages
// and rows joined on a one-value key) give every algorithm the same
// verdict, ErrNoPlan — never a plan whose expected cost is +Inf, and never
// an untyped error from building a law over non-finite sizes.
func TestOverflowingStatisticsRefusedByEveryAlgorithm(t *testing.T) {
	cat := NewCatalog()
	for _, tc := range []struct {
		name        string
		pages, rows float64
	}{{"a", 1.7e308, 1.7e308}, {"b", 1000, 50_000}, {"c", 1000, 50_000}} {
		tab, err := NewTable(tc.name, tc.pages, tc.rows, Column{Name: "k", Distinct: 1, Min: 0, Max: 1e4})
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	blk, err := ParseSQL("SELECT * FROM a, b, c WHERE a.k = b.k AND b.k = c.k", cat)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Bimodal(700, 2000, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	sc := &Scenario{Cat: cat, Query: blk, Env: Env{Mem: mem}}
	for _, alg := range Algorithms() {
		rep, err := sc.Optimize(alg)
		if !errors.Is(err, ErrNoPlan) {
			t.Errorf("%s: EC %v, err = %v, want ErrNoPlan", alg, rep.EC, err)
		}
	}
}

// TestObserveRefusesHostileSizes: a negative, NaN or infinite size, alone
// or beside valid ones, refuses the whole observation with ErrBadStats,
// with feedback on or off. Nothing folds, so FeedbackStats and the next
// Optimize's plan and cache hit are as before. Valid sizes still fold,
// and a size of 0 (an empty intermediate) is a skipped no-op.
func TestObserveRefusesHostileSizes(t *testing.T) {
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
	mem, err := Bimodal(700, 2000, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{SQL: "SELECT * FROM a, b WHERE a.k = b.k", Env: Env{Mem: mem}, Alg: AlgC}
	ab := SizeKey("a", "b")
	hostile := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -math.SmallestNonzeroFloat64}
	for _, h := range []struct {
		name string
		opts []Option
	}{{"feedback on", nil}, {"feedback off", []Option{WithoutFeedback()}}} {
		opt := New(cat, h.opts...)
		first, err := opt.Optimize(req)
		if err != nil {
			t.Fatal(err)
		}
		unchanged := func(what string, q0 int, n0 uint64) {
			t.Helper()
			if q, n := opt.FeedbackStats(); q != q0 || n != n0 {
				t.Errorf("%s, %s: FeedbackStats %d queries, %d observations; want %d, %d", h.name, what, q, n, q0, n0)
			}
			resp, err := opt.Optimize(req)
			if err != nil {
				t.Fatal(err)
			}
			if !resp.CacheHit || resp.Plan.Signature() != first.Plan.Signature() {
				t.Errorf("%s, %s: next Optimize CacheHit %v plan %s; want a hit on %s",
					h.name, what, resp.CacheHit, resp.Plan.Signature(), first.Plan.Signature())
			}
		}
		for _, v := range hostile {
			for _, sizes := range []map[string]float64{
				{ab: v},
				{ab: v, "a": 40},
				{ab: 12_000, "a": v},
			} {
				what := fmt.Sprintf("Observe(%v)", sizes)
				if err := opt.Observe(Feedback{SQL: req.SQL, Sizes: sizes}); !errors.Is(err, ErrBadStats) {
					t.Errorf("%s, %s = %v, want ErrBadStats", h.name, what, err)
				}
				unchanged(what, 0, 0)
			}
		}
		if err := opt.Observe(Feedback{SQL: req.SQL, Sizes: map[string]float64{ab: 0}}); err != nil {
			t.Errorf("%s, a size of 0: %v, want nil", h.name, err)
		}
		unchanged("a size of 0", 0, 0)
		if err := opt.Observe(Feedback{SQL: req.SQL, Sizes: map[string]float64{ab: 12_000, "a": 40}}); err != nil {
			t.Errorf("%s, valid sizes: %v, want nil", h.name, err)
		}
		if h.opts != nil {
			continue
		}
		if q, n := opt.FeedbackStats(); q != 1 || n != 2 {
			t.Errorf("valid sizes: FeedbackStats %d queries, %d observations; want 1, 2", q, n)
		}
		if resp, err := opt.Optimize(req); err != nil || resp.CacheHit {
			t.Errorf("after valid sizes folded: CacheHit %v, err %v; want a miss under the new hints", resp.CacheHit, err)
		}
	}
}

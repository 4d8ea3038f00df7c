package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"lecopt/internal/catalog"
	"lecopt/internal/dist"
	"lecopt/internal/envsim"
	"lecopt/internal/feedback"
	"lecopt/internal/optimizer"
	"lecopt/internal/workload"
)

func serviceScenario(t *testing.T, seed int64) workload.Scenario {
	t.Helper()
	sc, err := workload.Generate(workload.DefaultSpec(3, workload.Chain), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func serviceEnv(t *testing.T) envsim.Env {
	t.Helper()
	mem, err := dist.Bimodal(700, 2000, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	return envsim.Env{Mem: mem}
}

func TestOptimizeRequiresAQuery(t *testing.T) {
	o := NewOptimizer(nil, Config{})
	if _, err := o.Optimize(Request{Env: serviceEnv(t)}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("want ErrBadRequest, got %v", err)
	}
	if _, err := o.Optimize(Request{SQL: "SELECT * FROM a"}); !errors.Is(err, errNoCatalog) {
		t.Fatalf("want errNoCatalog, got %v", err)
	}
	if _, err := o.Prepare("SELECT * FROM a"); !errors.Is(err, errNoCatalog) {
		t.Fatalf("Prepare without catalog: got %v", err)
	}
	if err := o.Observe(Feedback{Sizes: map[string]float64{feedback.SetKey("a", "b"): 10}}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Observe without a query: want ErrBadRequest, got %v", err)
	}
}

// TestOptimizeSQLMatchesBlock: a request carrying SQL answers exactly like
// one carrying the pre-parsed block.
func TestOptimizeSQLMatchesBlock(t *testing.T) {
	sc := serviceScenario(t, 3)
	env := serviceEnv(t)
	o := NewOptimizer(sc.Cat, Config{})
	viaBlock, err := o.Optimize(Request{Query: sc.Block, Env: env, Alg: AlgC})
	if err != nil {
		t.Fatal(err)
	}
	viaSQL, err := o.Optimize(Request{SQL: sc.Block.String(), Env: env, Alg: AlgC})
	if err != nil {
		t.Fatal(err)
	}
	if viaBlock.Plan.Signature() != viaSQL.Plan.Signature() || viaBlock.EC != viaSQL.EC {
		t.Fatalf("SQL path diverged: %s/%v vs %s/%v",
			viaBlock.Plan.Signature(), viaBlock.EC, viaSQL.Plan.Signature(), viaSQL.EC)
	}
	if !viaSQL.CacheHit {
		t.Fatal("identical request must hit the plan cache")
	}
}

// driftCatalog builds a two-table join catalog whose distinct counts sit
// mid-band (600 and 700: both in the log2 band [512, 1024)), so a mild
// multiplicative drift stays in-band while a large one crosses out.
func driftCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for name, distinct := range map[string]float64{"t0": 600, "t1": 700} {
		tab, err := catalog.NewTable(name, 1000, 10_000,
			catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: distinct, Min: 0, Max: 1e6})
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// TestDriftBandedCacheServesDriftedStats is the drift-banding contract:
// statistics that drift *within* a band keep hitting the cached plan;
// drift that crosses a band boundary — or any change at all under exact
// keys — misses cleanly.
func TestDriftBandedCacheServesDriftedStats(t *testing.T) {
	cat := driftCatalog(t)
	const sql = "SELECT * FROM t0, t1 WHERE t0.k = t1.k"
	env := serviceEnv(t)
	inBand, err := cat.ScaleDistinct(1.3) // 600->780, 700->910: same log2 band
	if err != nil {
		t.Fatal(err)
	}
	outOfBand, err := cat.ScaleDistinct(4) // 2400, 2800: two bands up
	if err != nil {
		t.Fatal(err)
	}

	banded := NewOptimizer(cat, Config{})
	if _, err := banded.Optimize(Request{SQL: sql, Env: env, Alg: AlgC}); err != nil {
		t.Fatal(err)
	}
	resp, err := banded.Optimize(Request{SQL: sql, Cat: inBand, Env: env, Alg: AlgC})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Fatal("in-band drifted statistics missed the drift-banded cache")
	}
	resp, err = banded.Optimize(Request{SQL: sql, Cat: outOfBand, Env: env, Alg: AlgC})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Fatal("cross-band drift must miss (staleness control)")
	}

	exact := NewOptimizer(cat, Config{DriftBand: -1})
	if _, err := exact.Optimize(Request{SQL: sql, Env: env, Alg: AlgC}); err != nil {
		t.Fatal(err)
	}
	resp, err = exact.Optimize(Request{SQL: sql, Cat: inBand, Env: env, Alg: AlgC})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Fatal("exact keys must miss on any statistics change")
	}
	if banded.DriftBand() != DefaultDriftBand || exact.DriftBand() != 0 {
		t.Fatalf("band resolution wrong: %v / %v", banded.DriftBand(), exact.DriftBand())
	}
}

// TestDriftBandedCacheClampedDrift is the serving-fleet case that
// motivated banding: when recorded distinct counts exceed the row count,
// the band is computed on the clamped effective value, so the default
// ±2x multiplicative drift — which clamps back to the row count —
// coalesces into one band and keeps hitting.
func TestDriftBandedCacheClampedDrift(t *testing.T) {
	cat := catalog.New()
	for _, name := range []string{"t0", "t1"} {
		// distinct 600 recorded over only 300 rows: every drift factor's
		// clamped effective distinct is min(600*f, 300) -> 300 for f>=1
		// and 300 for f=0.5 once clamped... all in the same band.
		tab, err := catalog.NewTable(name, 50, 300,
			catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: 600, Min: 0, Max: 600})
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	const sql = "SELECT * FROM t0, t1 WHERE t0.k = t1.k"
	env := serviceEnv(t)
	o := NewOptimizer(cat, Config{})
	if _, err := o.Optimize(Request{SQL: sql, Env: env, Alg: AlgC}); err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{0.5, 2} {
		drifted, err := cat.ScaleDistinct(f)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := o.Optimize(Request{SQL: sql, Cat: drifted, Env: env, Alg: AlgC})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.CacheHit {
			t.Fatalf("clamped drift factor %v missed the banded cache", f)
		}
	}
}

// TestObserveChangesCosting closes the loop in miniature: observing an
// executed size for the join's table set must re-cost subsequent
// optimizations with the observed size (visible in the plan's OutPages)
// and must not be served the stale cached plan.
func TestObserveChangesCosting(t *testing.T) {
	sc := serviceScenario(t, 7)
	env := serviceEnv(t)
	o := NewOptimizer(sc.Cat, Config{})
	before, err := o.Optimize(Request{Query: sc.Block, Env: env, Alg: AlgC})
	if err != nil {
		t.Fatal(err)
	}
	// Claim the full join result is 12000 pages, whatever was estimated.
	key := feedback.SetKey(sc.Block.Tables...)
	if err := o.Observe(Feedback{Query: sc.Block, Sizes: map[string]float64{key: 12_000}}); err != nil {
		t.Fatal(err)
	}
	queries, obs := o.FeedbackStats()
	if queries != 1 || obs == 0 {
		t.Fatalf("feedback not stored: %d queries, %d observations", queries, obs)
	}
	after, err := o.Optimize(Request{Query: sc.Block, Env: env, Alg: AlgC})
	if err != nil {
		t.Fatal(err)
	}
	if after.CacheHit {
		t.Fatal("new hints must change the cache key")
	}
	root := after.Plan
	if root.Kind.String() == "sort" {
		root = root.Child
	}
	if root.OutPages != 12_000 {
		t.Fatalf("observed size not folded into costing: root out=%v (before %v)",
			root.OutPages, before.Plan.OutPages)
	}
}

// TestExplicitHintsOverlayFeedback: a request's own SizeHints are laid over
// the observed ones (explicit wins on a shared key, observed hints for
// other keys still apply), and the overlay happens on the request's private
// copy — neither the feedback store nor the caller's map changes.
func TestExplicitHintsOverlayFeedback(t *testing.T) {
	sc := serviceScenario(t, 7)
	env := serviceEnv(t)
	o := NewOptimizer(sc.Cat, Config{})
	full := feedback.SetKey(sc.Block.Tables...)
	first := sc.Block.Tables[0]
	if err := o.Observe(Feedback{Query: sc.Block, Sizes: map[string]float64{full: 12_000, first: 30}}); err != nil {
		t.Fatal(err)
	}
	rootOut := func(req Request) float64 {
		t.Helper()
		resp, err := o.Optimize(req)
		if err != nil {
			t.Fatal(err)
		}
		root := resp.Plan
		if root.Kind.String() == "sort" {
			root = root.Child
		}
		return root.OutPages
	}
	explicit := map[string]float64{full: 500}
	opts := optimizer.Options{SizeHints: explicit}
	if got := rootOut(Request{Query: sc.Block, Env: env, Alg: AlgC, Opts: &opts}); got != 500 {
		t.Fatalf("explicit hint lost to the observed one: root out=%v, want 500", got)
	}
	if len(explicit) != 1 || explicit[full] != 500 {
		t.Fatalf("caller's hint map was written to: %v", explicit)
	}
	if got := rootOut(Request{Query: sc.Block, Env: env, Alg: AlgC}); got != 12_000 {
		t.Fatalf("explicit hint leaked into the feedback store: root out=%v, want 12000", got)
	}
	// The explicit request still costed with the observed single-table
	// hint: its key differs from one carrying the explicit hint alone.
	withObserved := Scenario{Cat: sc.Cat, Query: sc.Block, Env: env,
		Opts: optimizer.Options{SizeHints: map[string]float64{full: 500, first: 30}}}
	alone := Scenario{Cat: sc.Cat, Query: sc.Block, Env: env, Opts: opts}
	hit := func(s *Scenario) bool {
		t.Helper()
		k, err := s.AppendCacheKey(nil, AlgC, o.DriftBand(), 0)
		if err != nil {
			t.Fatal(err)
		}
		_, ok := o.cache.ProbeBytes(k)
		return ok
	}
	if !hit(&withObserved) || hit(&alone) {
		t.Fatal("explicit request was not keyed under explicit + observed hints")
	}
}

func TestObserveDisabled(t *testing.T) {
	sc := serviceScenario(t, 7)
	o := NewOptimizer(sc.Cat, Config{DisableFeedback: true})
	key := feedback.SetKey(sc.Block.Tables...)
	if err := o.Observe(Feedback{Query: sc.Block, Sizes: map[string]float64{key: 9}}); err != nil {
		t.Fatal(err)
	}
	if q, obs := o.FeedbackStats(); q != 0 || obs != 0 {
		t.Fatalf("disabled feedback stored observations: %d/%d", q, obs)
	}
}

// TestPrepareMemoizedAndParametric: Prepare parses once per SQL text and
// precomputes a plan set over the anticipated memory laws; Select answers
// off-grid laws from the cached candidate set.
func TestPrepareMemoizedAndParametric(t *testing.T) {
	sc := serviceScenario(t, 11)
	laws := make([]dist.Dist, 0, 3)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		d, err := dist.Bimodal(64, 4096, p)
		if err != nil {
			t.Fatal(err)
		}
		laws = append(laws, d)
	}
	o := NewOptimizer(sc.Cat, Config{AnticipatedLaws: laws})
	sql := sc.Block.String()
	p1, err := o.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := o.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("Prepare must memoize by SQL text")
	}
	if len(p1.Entries()) != len(laws) {
		t.Fatalf("want %d entries, got %d", len(laws), len(p1.Entries()))
	}
	actual, err := dist.Bimodal(64, 4096, 0.33)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := p1.Select(actual)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Parametric || resp.Plan == nil || resp.EC <= 0 {
		t.Fatalf("parametric selection implausible: %+v", resp)
	}
	// The parametric answer can be no better than a full optimization,
	// and must be a member of the precomputed candidate set.
	full, err := p1.Optimize(envsim.Env{Mem: actual}, AlgC)
	if err != nil {
		t.Fatal(err)
	}
	if resp.EC+1e-9 < full.EC {
		t.Fatalf("parametric EC %v beats full optimization %v", resp.EC, full.EC)
	}
	found := false
	for _, e := range p1.Entries() {
		if e.Plan.Signature() == resp.Plan.Signature() {
			found = true
		}
	}
	if !found {
		t.Fatal("selected plan is not from the precomputed set")
	}
	if _, err := p1.Nearest(actual); err != nil {
		t.Fatal(err)
	}
}

// TestPrepareWithoutLawsFallsBack: no anticipated laws -> no plan set,
// and Select falls back to a full cached optimization.
func TestPrepareWithoutLawsFallsBack(t *testing.T) {
	sc := serviceScenario(t, 13)
	o := NewOptimizer(sc.Cat, Config{})
	p, err := o.Prepare(sc.Block.String())
	if err != nil {
		t.Fatal(err)
	}
	if p.Entries() != nil {
		t.Fatalf("unexpected plan set: %v", p.Entries())
	}
	resp, err := p.Select(serviceEnv(t).Mem)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Parametric {
		t.Fatal("fallback must be a full optimization, not parametric")
	}
	if resp.Plan == nil {
		t.Fatal("fallback returned no plan")
	}
}

// TestBatchDeterministicAcrossWorkers: with drift-banded keys a batch's
// results do not depend on the pooled calls it borrows: a second fresh
// handle, whose requests may reuse the first one's calls, answers alike. The second case gives the handle observed hints and mixes
// requests that fail with ErrBadRequest into the batch: the plans, which
// positions fail and the cache counters must not move either.
func TestBatchDeterministicAcrossWorkers(t *testing.T) {
	env := serviceEnv(t)
	var reqs []Request
	for seed := int64(0); seed < 12; seed++ {
		sc := serviceScenario(t, 20+seed%4) // repeats share banded keys
		reqs = append(reqs, Request{Query: sc.Block, Cat: sc.Cat, Env: env, Alg: AlgC})
	}
	var mixed []Request
	for i, r := range reqs {
		if i%3 == 1 {
			mixed = append(mixed, Request{Env: env, Alg: AlgC}) // names no query
		}
		mixed = append(mixed, r)
	}
	type outcome struct {
		results []string
		stats   [4]uint64
	}
	run := func(batch []Request, observe bool) outcome {
		o := NewOptimizer(nil, Config{})
		if observe {
			for i, r := range reqs[:3] {
				blk := r.Query
				if err := o.Observe(Feedback{Query: blk, Cat: r.Cat, Sizes: map[string]float64{
					feedback.SetKey(blk.Tables[0], blk.Tables[1]): float64(40 + 30*i),
				}}); err != nil {
					t.Fatal(err)
				}
			}
		}
		out := o.OptimizeBatch(batch)
		res := make([]string, len(out))
		for i, r := range out {
			switch {
			case errors.Is(r.Err, ErrBadRequest):
				res[i] = "ErrBadRequest"
			case r.Err != nil:
				t.Fatalf("request %d: %v", i, r.Err)
			default:
				res[i] = r.Plan.Signature()
			}
		}
		st := o.CacheStats()
		return outcome{res, [4]uint64{st.Hits, st.Misses, uint64(st.Size), st.Evictions}}
	}
	for _, tc := range []struct {
		name    string
		batch   []Request
		observe bool
	}{
		{"plain", reqs, false},
		{"feedback and bad requests", mixed, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := run(tc.batch, tc.observe), run(tc.batch, tc.observe)
			for i := range a.results {
				if a.results[i] != b.results[i] {
					t.Fatalf("request %d: a second handle changed the result: %s vs %s", i, a.results[i], b.results[i])
				}
			}
			if a.stats != b.stats {
				t.Fatalf("a second handle changed the cache counters (hits, misses, size, evictions): %v vs %v", a.stats, b.stats)
			}
		})
	}
}

// TestNegativeTopCUsesHandleDepth: a request's TopC overrides the handle's
// Algorithm B depth only when positive, so on a TopC-5 handle a request
// with TopC -1 is the TopC 0 request — the same report, served from the
// entry that request cached — not a depth-3 run under its own key.
func TestNegativeTopCUsesHandleDepth(t *testing.T) {
	sc := serviceScenario(t, 3)
	env := serviceEnv(t)
	o := NewOptimizer(sc.Cat, Config{TopC: 5})
	byDefault, err := o.Optimize(Request{Query: sc.Block, Env: env, Alg: AlgB})
	if err != nil {
		t.Fatal(err)
	}
	if byDefault.CacheHit {
		t.Fatal("first request cannot hit")
	}
	negative, err := o.Optimize(Request{Query: sc.Block, Env: env, Alg: AlgB, TopC: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !negative.CacheHit {
		t.Fatal("TopC -1 missed the entry TopC 0 cached on a TopC-5 handle")
	}
	if !reflect.DeepEqual(negative.PlanReport, byDefault.PlanReport) {
		t.Fatalf("TopC -1 report %+v differs from TopC 0 report %+v", negative.PlanReport, byDefault.PlanReport)
	}
	if st := o.CacheStats(); st.Size != 1 {
		t.Fatalf("want one cache entry, got %+v", st)
	}
}

// TestPreparedWinsOverQuery: a request or feedback that sets both Prepared
// and Query is about the prepared statement. A two-table statement beside
// a three-table block is optimized as two tables, and its observed sizes
// fold under the statement's key, not the block's.
func TestPreparedWinsOverQuery(t *testing.T) {
	cat := pinCat(t, 1000, 1500)
	o := NewOptimizer(cat, Config{})
	prep, err := o.Prepare("SELECT * FROM a, b WHERE a.k = b.k")
	if err != nil {
		t.Fatal(err)
	}
	three := pinBlock()
	resp, err := o.Optimize(Request{Prepared: prep, Query: three, Env: envsim.Env{Mem: dist.Point(40)}, Alg: AlgC})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Plan.Relations(); len(got) != 2 {
		t.Fatalf("optimized %v, want the prepared statement's two tables", got)
	}
	if err := o.Observe(Feedback{Prepared: prep, Query: three, Sizes: map[string]float64{
		feedback.SetKey("a", "b"): 77,
	}}); err != nil {
		t.Fatal(err)
	}
	if len(o.fb.HintsBytes(o.appendQueryKey(nil, cat, prep.Block()))) == 0 {
		t.Fatal("observation did not fold under the prepared statement's key")
	}
	if len(o.fb.HintsBytes(o.appendQueryKey(nil, cat, three))) != 0 {
		t.Fatal("observation folded under the block's key")
	}
}

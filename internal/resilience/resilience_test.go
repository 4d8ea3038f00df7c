package resilience

import (
	"fmt"
	"reflect"
	"testing"

	"lecopt/internal/catalog"
	"lecopt/internal/core"
	"lecopt/internal/dist"
	"lecopt/internal/envsim"
)

// testCatalog builds n joinable tables whose distinct counts all sit in
// the log2 band [512, 1024), so ScaleDistinct(4) moves every column
// exactly two bands up — the drifted catalogs used to force cold misses.
func testCatalog(t *testing.T, n int) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for i := 0; i < n; i++ {
		tab, err := catalog.NewTable(fmt.Sprintf("t%d", i), 1000, 10_000,
			catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: 600 + float64(i)*17, Min: 0, Max: 1e6})
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func scaled(t *testing.T, cat *catalog.Catalog, f float64) *catalog.Catalog {
	t.Helper()
	out, err := cat.ScaleDistinct(f)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func coreReq(cat *catalog.Catalog, sql string) core.Request {
	return core.Request{SQL: sql, Cat: cat, Env: envsim.Env{Mem: dist.Point(2000)}, Alg: core.AlgC}
}

const joinSQL = "SELECT * FROM t0, t1 WHERE t0.k = t1.k"

// flatLatency prices every cold optimization at exactly ColdBase so the
// accounting in the tests is arithmetic, not plan-space-dependent.
var flatLatency = LatencySpec{Hit: 10, ColdBase: 1000, Degraded: 40}

// decisions is every Decision a request can settle to.
var decisions = []Decision{
	decisionHit, decisionCold, decisionColdHedged, decisionDeniedCache,
	decisionDeniedDegraded, decisionBreakerCache, decisionBreakerDegraded,
	decisionBreakerTrial,
}

// tally counts settled outcomes by decision and by hedge outcome. It fails
// the test when an outcome settles to no known decision, or when its hedge
// outcome disagrees with its decision (a fired hedge is exactly a
// cold-hedged decision), so wins + losses + cancels == fired holds by
// construction of the checks below.
func tally(t *testing.T, outs []Outcome) (map[Decision]int, map[HedgeOutcome]int) {
	t.Helper()
	byDecision, byHedge := map[Decision]int{}, map[HedgeOutcome]int{}
	for i, out := range outs {
		known := false
		for _, d := range decisions {
			known = known || out.Decision == d
		}
		if !known {
			t.Errorf("request %d settled to no decision: %q", i, out.Decision)
		}
		if (out.Hedge != "") != (out.Decision == decisionColdHedged) {
			t.Errorf("request %d: hedge %q with decision %s", i, out.Hedge, out.Decision)
		}
		byDecision[out.Decision]++
		if out.Hedge != "" {
			byHedge[out.Hedge]++
		}
	}
	return byDecision, byHedge
}

func TestBudgetDeniesColdPathAndStillServes(t *testing.T) {
	cat := testCatalog(t, 2)
	w := New(core.NewOptimizer(nil, core.Config{}), Config{
		Budget:  BudgetSpec{Capacity: 1000, RefillPerSec: 2000},
		Latency: flatLatency,
	})

	var outs []Outcome
	do := func(req Request) Outcome {
		out := w.Do(req)
		outs = append(outs, out)
		return out
	}

	// r1: full bucket admits exactly one cold optimization and drains it.
	out := do(Request{Tenant: "a", Query: "q", Core: coreReq(cat, joinSQL)})
	if out.Decision != decisionCold || out.Charged != 1000 {
		t.Fatalf("r1: want cold charging 1000, got %s charging %d", out.Decision, out.Charged)
	}

	// r2: a two-band drift at the same instant is a cold miss with an
	// empty bucket — denied, but served the nearest banded cached plan
	// (the widened band search reaches two bands away).
	out = do(Request{Tenant: "a", Query: "q", Core: coreReq(scaled(t, cat, 4), joinSQL)})
	if out.Decision != decisionDeniedCache {
		t.Fatalf("r2: want %s, got %s", decisionDeniedCache, out.Decision)
	}
	if out.Plan == nil || out.Err != nil {
		t.Fatalf("r2: denied request must still be served a plan (err %v)", out.Err)
	}

	// r3: a four-band drift is beyond the widened search — degraded plan.
	out = do(Request{Tenant: "a", Query: "q", Core: coreReq(scaled(t, cat, 64), joinSQL)})
	if out.Decision != decisionDeniedDegraded || !out.Degraded || out.Plan == nil {
		t.Fatalf("r3: want served degraded plan, got %s (plan %v, err %v)", out.Decision, out.Plan, out.Err)
	}

	// One virtual second refills the bucket: the same far drift is now
	// admitted to the cold path.
	out = do(Request{Tenant: "a", Query: "q", At: 1_000_000, Core: coreReq(scaled(t, cat, 64), joinSQL)})
	if out.Decision != decisionCold {
		t.Fatalf("r4: refilled bucket should admit, got %s", out.Decision)
	}

	byDecision, _ := tally(t, outs)
	if denials := byDecision[decisionDeniedCache] + byDecision[decisionDeniedDegraded]; denials != 2 || len(outs) != 4 {
		t.Fatalf("want 2 denials over 4 requests, got %v", byDecision)
	}
	// The refill filled the bucket and r4's cold optimization drained it.
	if len(w.tenants) != 1 || w.tenants["a"].budget.tokens != 0 {
		t.Fatalf("want one tenant with an empty bucket, got %d tenants (a: %+v)", len(w.tenants), w.tenants["a"].budget)
	}
}

func TestBreakerTripsServesDegradedAndRecovers(t *testing.T) {
	cat := testCatalog(t, 2)
	w := New(core.NewOptimizer(nil, core.Config{}), Config{
		Breaker: BreakerSpec{Window: 4, Threshold: 0.5, MinSamples: 2, Cooldown: 1000},
		Latency: flatLatency,
	})
	var now Micros
	var outs []Outcome
	do := func(c *catalog.Catalog) Outcome {
		out := w.Do(Request{Tenant: "a", Query: "q", At: now, Core: coreReq(c, joinSQL)})
		outs = append(outs, out)
		return out
	}

	cat4, cat16 := scaled(t, cat, 4), scaled(t, cat, 16)
	// Two band-crossing cold misses in a row: churn 2/2 trips the breaker.
	if out := do(cat); out.Decision != decisionCold {
		t.Fatalf("r1: %s", out.Decision)
	}
	if out := do(cat4); out.Decision != decisionCold {
		t.Fatalf("r2: %s", out.Decision)
	}
	// Open: served without touching the cold path. cat16's band was never
	// optimized, and the widened cache search (±2 bands around cat16)
	// reaches cat4's band — degraded-but-cached service while open.
	out := do(cat16)
	if out.Breaker != "open" || out.Decision != decisionBreakerCache {
		t.Fatalf("r3: want open/breaker-cache, got %s/%s", out.Breaker, out.Decision)
	}
	// Cooldown elapses → half-open trial. A trial on a never-cached band
	// is a cold miss: the tenant is still churning, the breaker reopens.
	now += 1000
	out = do(scaled(t, cat, 256))
	if out.Decision != decisionBreakerTrial || out.Breaker != "half-open" {
		t.Fatalf("r4: want half-open trial, got %s/%s", out.Breaker, out.Decision)
	}
	if st := w.tenants["a"].breaker.state; st != breakerOpen {
		t.Fatalf("r4: a churning trial must reopen the breaker, state %s", st)
	}
	// Another cooldown → trial on that now-cached band with an unchanged
	// plan: clean recovery, the breaker closes.
	now += 1000
	if out := do(scaled(t, cat, 256)); out.Decision != decisionBreakerTrial || !out.CacheHit {
		t.Fatalf("r5: want trial cache hit, got %s (hit=%v)", out.Decision, out.CacheHit)
	}
	if out := do(scaled(t, cat, 256)); out.Decision != decisionHit || out.Breaker != "closed" {
		t.Fatalf("r6: closed breaker should serve hits, got %s/%s", out.Decision, out.Breaker)
	}

	byDecision, _ := tally(t, outs)
	if open := byDecision[decisionBreakerCache] + byDecision[decisionBreakerDegraded]; open != 1 {
		t.Fatalf("want 1 open-served request, got %v", byDecision)
	}
	if byDecision[decisionBreakerTrial] != 2 {
		t.Fatalf("want 2 half-open trials (one reopen, one recovery), got %v", byDecision)
	}
}

// TestHedgeAccounting drives the win / loss / cancel cases with exact
// arithmetic: flat 1000µs colds arm the p50 delay at 1000, then three
// jittered requests land one on each side of the race.
func TestHedgeAccounting(t *testing.T) {
	cat := testCatalog(t, 6)
	w := New(core.NewOptimizer(nil, core.Config{}), Config{
		Hedge:   HedgeSpec{Quantile: 0.5, MinSamples: 3, Startup: 10},
		Latency: flatLatency,
	})
	pairs := [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}}
	var outs []Outcome
	do := func(i int, pj, hj float64) Outcome {
		sql := fmt.Sprintf("SELECT * FROM t%d, t%d WHERE t%d.k = t%d.k",
			pairs[i][0], pairs[i][1], pairs[i][0], pairs[i][1])
		out := w.Do(Request{Tenant: "a", Query: fmt.Sprintf("q%d", i),
			Core: coreReq(cat, sql), PrimaryJitter: pj, HedgeJitter: hj})
		outs = append(outs, out)
		return out
	}

	// Three unhedged colds at jitter 1 arm the delay ring: p50 = 1000.
	for i := 0; i < 3; i++ {
		if out := do(i, 1, 1); out.Hedge != "" || out.Served != 1000 {
			t.Fatalf("warmup %d: %+v", i, out)
		}
	}
	// Win: primary 2000 outlives the 1000 delay; hedge finishes at
	// 1000+400=1400. Served 1400; the primary's 1400µs of work is waste.
	out := do(3, 2, 0.4)
	if out.Hedge != hedgeWin || out.Served != 1400 || out.Wasted != 1400 || out.Charged != 1800 {
		t.Fatalf("win: %+v", out)
	}
	// Cancel: primary 1004 (1000 × 1.005, truncated to whole µs) beats the
	// hedge's 10µs startup window (ring now holds a 2000; p50 of
	// [1000,1000,1000,2000] is still 1000).
	out = do(4, 1.005, 1)
	if out.Hedge != hedgeCancel || out.Served != 1004 || out.Wasted != 10 || out.Charged != 1014 {
		t.Fatalf("cancel: %+v", out)
	}
	// Loss: hedge would finish at 1000+2000=3000, after the primary's
	// 2000. Served 2000; the hedge's 1000µs beyond its launch is waste.
	out = do(5, 2, 2)
	if out.Hedge != hedgeLoss || out.Served != 2000 || out.Wasted != 1000 || out.Charged != 3000 {
		t.Fatalf("loss: %+v", out)
	}

	byDecision, byHedge := tally(t, outs)
	fired := byDecision[decisionColdHedged]
	if fired != 3 || byHedge[hedgeWin] != 1 || byHedge[hedgeLoss] != 1 || byHedge[hedgeCancel] != 1 {
		t.Fatalf("hedge tallies: %d fired, %v", fired, byHedge)
	}
	if byHedge[hedgeWin]+byHedge[hedgeLoss]+byHedge[hedgeCancel] != fired {
		t.Fatalf("accounting identity broken: %d fired, %v", fired, byHedge)
	}
}

// TestWrapperDeterminism: the same request sequence against two fresh
// wrappers settles to identical outcomes and identical tenant state.
func TestWrapperDeterminism(t *testing.T) {
	cat := testCatalog(t, 3)
	run := func() ([]Outcome, map[string]*tenantState) {
		w := New(core.NewOptimizer(nil, core.Config{}), Config{
			Budget:  BudgetSpec{Capacity: 2000, RefillPerSec: 500_000},
			Breaker: BreakerSpec{Window: 6, Threshold: 0.5, MinSamples: 4, Cooldown: 2000},
			Hedge:   HedgeSpec{Quantile: 0.5, MinSamples: 2, Startup: 10},
			Latency: flatLatency,
		})
		factors := []float64{1, 4, 1, 16, 4, 64, 1, 256, 16, 1}
		var outs []Outcome
		for i, f := range factors {
			outs = append(outs, w.Do(Request{Tenant: "a", Query: "q", At: Micros(i) * 500,
				Core:          coreReq(scaled(t, cat, f), joinSQL),
				PrimaryJitter: 1 + float64(i%3), HedgeJitter: 1}))
		}
		return outs, w.tenants
	}
	o1, s1 := run()
	o2, s2 := run()
	if !reflect.DeepEqual(o1, o2) {
		t.Fatalf("outcomes diverged:\n%+v\nvs\n%+v", o1, o2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("tenant state diverged:\n%+v\nvs\n%+v", s1, s2)
	}
}

// TestBudgetRefillExact: refill keeps the sub-token remainder across calls
// and fills the bucket on a gap whose accrual would overflow.
func TestBudgetRefillExact(t *testing.T) {
	drained := func() *budget {
		b := &budget{spec: BudgetSpec{Capacity: 10, RefillPerSec: 1000}}
		b.refill(0)
		b.charge(10)
		return b
	}
	b := drained()
	b.refill(500)
	b.refill(1000)
	if b.tokens != 1 {
		t.Fatalf("two half-token refills left %d tokens, want 1", b.tokens)
	}
	b = drained()
	b.refill(1 << 62)
	if b.tokens != 10 || b.carry != 0 {
		t.Fatalf("long gap left %d tokens (carry %d), want a full bucket of 10", b.tokens, b.carry)
	}
}

package optimizer

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"lecopt/internal/catalog"
	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/envsim"
	"lecopt/internal/query"
)

// bruteTopC returns the true top-c combination scores of left[i]+right[k].
func bruteTopC(left, right []float64, c int) []float64 {
	var all []float64
	for _, l := range left {
		for _, r := range right {
			all = append(all, l+r)
		}
	}
	sort.Float64s(all)
	if len(all) > c {
		all = all[:c]
	}
	return all
}

// TestProposition31 (experiment E5): the frontier probes at most
// c + c·ln(c) pairs and returns exactly the true top-c combinations.
func TestProposition31(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		c := 1 + rng.Intn(64)
		nl := 1 + rng.Intn(2*c)
		nr := 1 + rng.Intn(2*c)
		left := make([]float64, nl)
		right := make([]float64, nr)
		for i := range left {
			left[i] = rng.Float64() * 1000
		}
		for i := range right {
			right[i] = rng.Float64() * 1000
		}
		sort.Float64s(left)
		sort.Float64s(right)

		pairs, probes := TopCCombine(left, right, c)
		bound := float64(c) + float64(c)*math.Log(float64(c))
		if float64(probes) > bound+1e-9 {
			t.Fatalf("trial %d: probes %d exceed c+c·ln c = %.2f (c=%d)", trial, probes, bound, c)
		}
		want := bruteTopC(left, right, c)
		if len(pairs) != len(want) {
			t.Fatalf("trial %d: got %d pairs, want %d", trial, len(pairs), len(want))
		}
		for i, p := range pairs {
			got := left[p[0]] + right[p[1]]
			if math.Abs(got-want[i]) > 1e-9 {
				t.Fatalf("trial %d: rank %d: got %v want %v", trial, i, got, want[i])
			}
		}
	}
}

func TestTopCCombineEdgeCases(t *testing.T) {
	if p, n := TopCCombine(nil, []float64{1}, 3); p != nil || n != 0 {
		t.Fatal("empty left")
	}
	if p, n := TopCCombine([]float64{1}, []float64{2}, 0); p != nil || n != 0 {
		t.Fatal("c=0")
	}
	pairs, probes := TopCCombine([]float64{1}, []float64{2}, 5)
	if len(pairs) != 1 || probes != 1 {
		t.Fatalf("single pair: %v %d", pairs, probes)
	}
}

// Property: frontier equals brute force for arbitrary sorted inputs.
func TestQuickTopCEqualsBrute(t *testing.T) {
	f := func(rawL, rawR []uint16, cRaw uint8) bool {
		c := int(cRaw)%32 + 1
		if len(rawL) == 0 || len(rawR) == 0 {
			return true
		}
		if len(rawL) > 50 {
			rawL = rawL[:50]
		}
		if len(rawR) > 50 {
			rawR = rawR[:50]
		}
		left := make([]float64, len(rawL))
		right := make([]float64, len(rawR))
		for i, v := range rawL {
			left[i] = float64(v)
		}
		for i, v := range rawR {
			right[i] = float64(v)
		}
		sort.Float64s(left)
		sort.Float64s(right)
		pairs, _ := TopCCombine(left, right, c)
		want := bruteTopC(left, right, c)
		if len(pairs) != len(want) {
			return false
		}
		for i, p := range pairs {
			if math.Abs(left[p[0]]+right[p[1]]-want[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAlgorithmBC1MatchesA: with c=1 Algorithm B degenerates to Algorithm
// A (same candidate set), so the selected plan's expected cost matches.
func TestAlgorithmBC1MatchesA(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		sc := randScenario(rng, 2+rng.Intn(3))
		mem := randMemLaw(rng)
		a, err := AlgorithmA(sc.cat, sc.blk, Options{}, mem)
		if err != nil {
			t.Fatal(err)
		}
		b, err := AlgorithmB(sc.cat, sc.blk, Options{}, mem, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !relClose(a.EC, b.EC) {
			t.Fatalf("trial %d: A=%v B(c=1)=%v", trial, a.EC, b.EC)
		}
	}
}

// TestAlgorithmBMonotoneInC: increasing c can only improve (or tie) the
// selected plan's expected cost, and Algorithm B records frontier probes.
func TestAlgorithmBMonotoneInC(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 12; trial++ {
		sc := randScenario(rng, 3+rng.Intn(2))
		mem := randMemLaw(rng)
		prev := math.Inf(1)
		for _, c := range []int{1, 2, 4, 8} {
			r, err := AlgorithmB(sc.cat, sc.blk, Options{}, mem, c)
			if err != nil {
				t.Fatal(err)
			}
			if r.EC > prev*(1+1e-9) {
				t.Fatalf("trial %d: EC went up at c=%d: %v > %v", trial, c, r.EC, prev)
			}
			prev = r.EC
			if c > 1 && r.Probes == 0 {
				t.Fatalf("trial %d: no frontier probes recorded at c=%d", trial, c)
			}
		}
	}
}

// TestAlgorithmDPointLawsMatchesC: with degenerate (point) selectivity and
// size laws, Algorithm D must coincide with Algorithm C.
func TestAlgorithmDPointLawsMatchesC(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 20; trial++ {
		sc := randScenario(rng, 2+rng.Intn(3))
		mem := randMemLaw(rng)
		c, err := AlgorithmC(sc.cat, sc.blk, Options{}, mem)
		if err != nil {
			t.Fatal(err)
		}
		d, err := AlgorithmD(sc.cat, sc.blk, Options{}, mem, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !relClose(c.EC, d.EC) {
			t.Fatalf("trial %d: C=%v D(point laws)=%v", trial, c.EC, d.EC)
		}
	}
}

// dJointScenario builds a two-table scenario with uncertain selectivity
// and base size for exact joint-enumeration checks.
func dJointScenario(t *testing.T) (*catalog.Catalog, *query.Block) {
	t.Helper()
	cat := catalog.New()
	a := catalog.MustTable("a", 40_000, 4_000_000,
		catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: 4_000_000, Min: 0, Max: 1e9})
	b := catalog.MustTable("b", 10_000, 1_000_000,
		catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: 1_000_000, Min: 0, Max: 1e9})
	if err := cat.AddTable(a); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(b); err != nil {
		t.Fatal(err)
	}
	blk := &query.Block{
		Tables: []string{"a", "b"},
		Joins:  []query.Join{{Left: query.ColRef{Table: "a", Column: "k"}, Right: query.ColRef{Table: "b", Column: "k"}}},
	}
	return cat, blk
}

// TestAlgorithmDJointEnumeration: on a 2-table query with small supports
// and ample size buckets (no rebucketing loss), Algorithm D's score must
// equal the exact joint enumeration E over (|A|, |B|, σ, M) of the chosen
// plan's cost, and no alternative plan may have lower exact EC.
func TestAlgorithmDJointEnumeration(t *testing.T) {
	cat, blk := dJointScenario(t)
	mem := dist.MustNew([]float64{50, 150, 400}, []float64{0.3, 0.4, 0.3})
	sizeA := dist.MustNew([]float64{20_000, 40_000, 80_000}, []float64{0.25, 0.5, 0.25})
	sigma, err := catalog.SelectivityDist(1e-6, 4, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Methods: []cost.JoinMethod{cost.SortMerge, cost.GraceHash, cost.PageNL}, SizeBuckets: 1000}
	selLaws := map[string]dist.Dist{EdgeKey(blk.Joins[0]): sigma}
	sizeLaws := map[string]dist.Dist{"a": sizeA}

	res, err := AlgorithmD(cat, blk, opts, mem, selLaws, sizeLaws)
	if err != nil {
		t.Fatal(err)
	}

	// Exact joint EC of a 2-table plan (outer=a with law sizeA, inner=b
	// fixed 10,000 pages): the heap handoff scans are free (the join
	// formula reads both inputs), join cost enumerates (|A|, M).
	exact := func(method cost.JoinMethod) float64 {
		return dist.Expect2(sizeA, mem, func(av, mv float64) float64 {
			return cost.JoinIOModel(cost.ModelPaper, method, av, 10_000, mv)
		})
	}
	best := math.Inf(1)
	var bestM cost.JoinMethod
	for _, m := range opts.Methods {
		if ec := exact(m); ec < best {
			best, bestM = ec, m
		}
	}
	if !relClose(res.EC, best) {
		t.Fatalf("AlgD EC %v vs exact best %v (method %v)", res.EC, best, bestM)
	}
	if res.Plan.Method != bestM && !relClose(exact(res.Plan.Method), best) {
		t.Fatalf("AlgD picked %v, exact best is %v", res.Plan.Method, bestM)
	}
}

// TestAlgorithmDBeatsLSCUnderJointUncertainty: a scenario engineered so
// selectivity uncertainty flips the method choice; D's plan must have
// exact expected cost ≤ the LSC plan's.
func TestAlgorithmDBeatsLSCUnderJointUncertainty(t *testing.T) {
	cat, blk := dJointScenario(t)
	// Memory law straddling grace-hash's √S threshold for the likely size
	// but not the tail size.
	mem := dist.MustNew([]float64{80, 120}, []float64{0.5, 0.5})
	sigma, err := catalog.SelectivityDist(1e-6, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{SizeBuckets: 1000}
	selLaws := map[string]dist.Dist{EdgeKey(blk.Joins[0]): sigma}

	d, err := AlgorithmD(cat, blk, opts, mem, selLaws, nil)
	if err != nil {
		t.Fatal(err)
	}
	lsc, err := LSC(cat, blk, opts, mem.Mean())
	if err != nil {
		t.Fatal(err)
	}
	exactEC := func(method cost.JoinMethod, sorted bool) float64 {
		scan := 50_000.0
		join := mem.ExpectF(func(mv float64) float64 {
			return cost.JoinIOModel(cost.ModelPaper, method, 40_000, 10_000, mv)
		})
		// No ORDER BY in this block, so no enforcer; sorted unused.
		_ = sorted
		return scan + join
	}
	if exactEC(d.Plan.Method, false) > exactEC(lsc.Plan.Method, false)*(1+1e-9) {
		t.Fatalf("D's method %v exact EC %v worse than LSC's %v exact EC %v",
			d.Plan.Method, exactEC(d.Plan.Method, false),
			lsc.Plan.Method, exactEC(lsc.Plan.Method, false))
	}
}

// TestAlgorithmDSizePropagation: on a 3-table chain, the root join's
// outer size distribution must reflect the first join's σ law — checked
// through the plan's annotated mean pages.
func TestAlgorithmDSizePropagation(t *testing.T) {
	cat := catalog.New()
	for _, spec := range []struct {
		name  string
		pages float64
	}{{"a", 1000}, {"b", 2000}, {"c", 500}} {
		tab := catalog.MustTable(spec.name, spec.pages, spec.pages*100,
			catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: spec.pages * 100, Min: 0, Max: 1e9})
		if err := cat.AddTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	blk := &query.Block{
		Tables: []string{"a", "b", "c"},
		Joins: []query.Join{
			{Left: query.ColRef{Table: "a", Column: "k"}, Right: query.ColRef{Table: "b", Column: "k"}},
			{Left: query.ColRef{Table: "b", Column: "k"}, Right: query.ColRef{Table: "c", Column: "k"}},
		},
	}
	mem := dist.Point(200)
	res, err := AlgorithmD(cat, blk, Options{}, mem, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Joins() != 2 {
		t.Fatalf("expected 2 joins, got %s", res.Plan.Signature())
	}
	if res.Plan.OutPages <= 0 || math.IsNaN(res.Plan.OutPages) {
		t.Fatalf("root size annotation invalid: %v", res.Plan.OutPages)
	}
	// Point laws → D equals C exactly on the same block.
	c, err := AlgorithmC(cat, blk, Options{}, mem)
	if err != nil {
		t.Fatal(err)
	}
	if !relClose(res.EC, c.EC) {
		t.Fatalf("3-chain: D=%v C=%v", res.EC, c.EC)
	}
}

// TestPhaseLawsFor: callers build the per-phase laws they hand the
// evaluator and ExhaustiveLEC with envsim.Env.PhaseLaws, one law per join
// phase. Those must be the laws Algorithm C and C-dynamic optimize under —
// the static law repeated, or the chain's i-step marginals.
func TestPhaseLawsFor(t *testing.T) {
	chain, err := dist.Sticky([]float64{50, 100}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 5; n++ {
		static, err := envsim.Env{Mem: dist.Point(100)}.PhaseLaws(n - 1)
		if err != nil {
			t.Fatal(err)
		}
		dynamic, err := envsim.Env{Mem: dist.Point(100), Chain: chain}.PhaseLaws(n - 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := chain.PhaseLaws(dist.Point(100), lastPhase(n)+1)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name      string
			got, want []dist.Dist
		}{{"static", static, slices.Repeat([]dist.Dist{dist.Point(100)}, lastPhase(n)+1)}, {"dynamic", dynamic, want}} {
			if len(tc.got) != len(tc.want) {
				t.Fatalf("%d tables, %s: %d laws, want %d", n, tc.name, len(tc.got), len(tc.want))
			}
			for i := range tc.got {
				if !tc.got[i].ApproxEqual(tc.want[i], 0) {
					t.Fatalf("%d tables, %s: phase %d law %v, want %v", n, tc.name, i, tc.got[i], tc.want[i])
				}
			}
		}
		if n >= 3 && dynamic[1].Len() != 2 {
			t.Fatalf("%d tables: phase 1 of the chain must have spread", n)
		}
	}
}

// TestAlgorithmAIncludesMeanBucket: even when the law's support excludes
// the mean, Algorithm A considers the mean-LSC plan, preserving the
// dominance guarantee of Section 3.2.
func TestAlgorithmAIncludesMeanBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	sc := randScenario(rng, 3)
	mem := dist.MustNew([]float64{10, 3000}, []float64{0.5, 0.5}) // mean 1505 not in support
	a, err := AlgorithmA(sc.cat, sc.blk, Options{}, mem)
	if err != nil {
		t.Fatal(err)
	}
	lsc, err := LSC(sc.cat, sc.blk, Options{}, mem.Mean())
	if err != nil {
		t.Fatal(err)
	}
	lscEC, err := ExpectedCostModel(cost.ModelPaper, lsc.Plan, []dist.Dist{mem})
	if err != nil {
		t.Fatal(err)
	}
	if a.EC > lscEC*(1+1e-9) {
		t.Fatalf("Algorithm A (%v) must not lose to mean-LSC (%v)", a.EC, lscEC)
	}
}

// overflowScenario is two tables joined on two columns, with a selectivity
// law on each edge whose product overflows float64: 1e200 · 1e200.
func overflowScenario(t *testing.T) (*catalog.Catalog, *query.Block, map[string]dist.Dist) {
	t.Helper()
	cat := catalog.New()
	for _, name := range []string{"a", "b"} {
		tab, err := catalog.NewTable(name, 100, 10_000,
			catalog.Column{Name: "x", Distinct: 100, Max: 1e6},
			catalog.Column{Name: "y", Distinct: 100, Max: 1e6})
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	blk := &query.Block{Tables: []string{"a", "b"}, Joins: []query.Join{
		{Left: query.ColRef{Table: "a", Column: "x"}, Right: query.ColRef{Table: "b", Column: "x"}},
		{Left: query.ColRef{Table: "a", Column: "y"}, Right: query.ColRef{Table: "b", Column: "y"}},
	}}
	huge := dist.MustNew([]float64{1e200, 2e200}, []float64{1, 1})
	laws := map[string]dist.Dist{}
	for _, j := range blk.Joins {
		laws[EdgeKey(j)] = huge
	}
	return cat, blk, laws
}

// TestAlgorithmDOverflowingSelLawsIsAnError: two selectivity laws on one
// table pair multiply; a product past float range is a typed error, not a
// panic.
func TestAlgorithmDOverflowingSelLawsIsAnError(t *testing.T) {
	cat, blk, laws := overflowScenario(t)
	_, err := AlgorithmD(cat, blk, Options{}, dist.Point(100), laws, nil)
	if !errors.Is(err, dist.ErrBadDist) {
		t.Fatalf("AlgorithmD = %v, want a dist.ErrBadDist error", err)
	}
}

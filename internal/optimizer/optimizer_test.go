package optimizer

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"lecopt/internal/catalog"
	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/plan"
	"lecopt/internal/query"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v", msg, got, want)
	}
}

func relClose(a, b float64) bool {
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m < 1 {
		return d < 1e-9
	}
	return d/m < 1e-9
}

// example11 builds the paper's motivating scenario: A = 1,000,000 pages,
// B = 400,000 pages, result ≈ 3,000 pages, output ordered by the join
// column. The distinct count on the join key is chosen so the catalog's
// standard 1/max(V) estimator yields exactly the paper's 3,000-page
// result (the paper simply posits that size).
func example11(t *testing.T) (*catalog.Catalog, *query.Block) {
	t.Helper()
	cat := catalog.New()
	// 100 rows per page on both tables → result tpp 100;
	// outPages = rowsA·rowsB/(V·tpp) = 3000 ⇒ V = 4e13/3000.
	v := 4e13 / 3000.0
	a := catalog.MustTable("A", 1_000_000, 100_000_000,
		catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: v, Min: 0, Max: 1e12})
	b := catalog.MustTable("B", 400_000, 40_000_000,
		catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: 1000, Min: 0, Max: 1e12})
	if err := cat.AddTable(a); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(b); err != nil {
		t.Fatal(err)
	}
	blk := &query.Block{
		Tables:  []string{"A", "B"},
		Joins:   []query.Join{{Left: query.ColRef{Table: "A", Column: "k"}, Right: query.ColRef{Table: "B", Column: "k"}}},
		OrderBy: &query.ColRef{Table: "A", Column: "k"},
	}
	return cat, blk
}

var example11Opts = Options{Methods: []cost.JoinMethod{cost.SortMerge, cost.GraceHash}}

// TestExample11LSCPicksPlan1 is half of experiment E1: at the modal
// memory (2000) and at the mean (1740), the classical optimizer picks the
// sort-merge plan (paper's Plan 1).
func TestExample11LSCPicksPlan1(t *testing.T) {
	cat, blk := example11(t)
	for _, mem := range []float64{2000, 1740} {
		r, err := LSC(cat, blk, example11Opts, mem)
		if err != nil {
			t.Fatal(err)
		}
		sig := r.Plan.Signature()
		if !strings.Contains(sig, "sort-merge") || strings.Contains(sig, "sort<") {
			t.Fatalf("LSC at %v should pick plain sort-merge, got %s", mem, sig)
		}
		// Two-pass sort-merge 2.8e6 — the join reads both inputs, so the
		// handoff scans add nothing (the paper's Example 1.1 numbers).
		approx(t, r.EC, 2*1.4e6, 1, "LSC cost")
	}
}

// TestExample11LECPicksPlan2 is the other half of E1: under the bimodal
// law {700:0.2, 2000:0.8} Algorithm C picks grace-hash + explicit sort
// (paper's Plan 2), and its expected cost beats the LSC plan's.
func TestExample11LECPicksPlan2(t *testing.T) {
	cat, blk := example11(t)
	mem := dist.MustNew([]float64{700, 2000}, []float64{0.2, 0.8})

	r, err := AlgorithmC(cat, blk, example11Opts, mem)
	if err != nil {
		t.Fatal(err)
	}
	sig := r.Plan.Signature()
	if !strings.Contains(sig, "grace-hash") || !strings.Contains(sig, "sort<") {
		t.Fatalf("LEC should pick grace-hash + sort, got %s", sig)
	}
	// GH 2.8e6 (input reads included) + sort of ~3000 pages ≈ 6000.
	approx(t, r.EC, 2.8e6+6000, 5, "LEC expected cost")

	// The LSC plan's expected cost is strictly worse.
	lsc, err := LSC(cat, blk, example11Opts, mem.Mode())
	if err != nil {
		t.Fatal(err)
	}
	lscEC, err := ExpectedCostModel(cost.ModelPaper, lsc.Plan, []dist.Dist{mem})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, lscEC, 0.8*2.8e6+0.2*5.6e6, 5, "LSC plan EC")
	if !(r.EC < lscEC) {
		t.Fatalf("LEC (%v) must beat LSC (%v) in expectation", r.EC, lscEC)
	}
}

// TestExample11AlgorithmA: the black-box algorithm also finds Plan 2,
// because the 700-page bucket's LSC run produces it as a candidate.
func TestExample11AlgorithmA(t *testing.T) {
	cat, blk := example11(t)
	mem := dist.MustNew([]float64{700, 2000}, []float64{0.2, 0.8})
	r, err := AlgorithmA(cat, blk, example11Opts, mem)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Plan.Signature(), "grace-hash") {
		t.Fatalf("Algorithm A should find plan 2, got %s", r.Plan.Signature())
	}
	if r.Candidates < 2 {
		t.Fatalf("Algorithm A should have compared ≥ 2 candidates, got %d", r.Candidates)
	}
	c, err := AlgorithmC(cat, blk, example11Opts, mem)
	if err != nil {
		t.Fatal(err)
	}
	if !relClose(r.EC, c.EC) {
		t.Fatalf("on this 2-table query A and C agree: %v vs %v", r.EC, c.EC)
	}
}

// --- random scenario machinery ------------------------------------------

type scenario struct {
	cat *catalog.Catalog
	blk *query.Block
}

// randScenario builds a random catalog and connected join query over n
// tables with a mix of shapes (chain/star/random), filters, indexes and an
// optional ORDER BY.
func randScenario(rng *rand.Rand, n int) scenario {
	cat := catalog.New()
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = string(rune('a' + i))
		pages := math.Trunc(50 + rng.Float64()*100000)
		tpp := 50.0
		distinct := math.Trunc(10 + rng.Float64()*pages*tpp)
		cols := []catalog.Column{
			{Name: "k", Type: catalog.TypeInt, Distinct: distinct, Min: 0, Max: 1e9},
			{Name: "v", Type: catalog.TypeInt, Distinct: 100, Min: 0, Max: 999},
		}
		tab := catalog.MustTable(names[i], pages, pages*tpp, cols...)
		if err := cat.AddTable(tab); err != nil {
			panic(err)
		}
		if rng.Float64() < 0.4 {
			_ = cat.AddIndex(catalog.Index{
				Name: "ix_" + names[i], Table: names[i], Column: "k",
				Clustered: rng.Float64() < 0.5, Height: 2,
			})
		}
	}
	blk := &query.Block{Tables: names}
	// Connect via random spanning tree.
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		blk.Joins = append(blk.Joins, query.Join{
			Left:  query.ColRef{Table: names[j], Column: "k"},
			Right: query.ColRef{Table: names[i], Column: "k"},
		})
	}
	// Occasional extra edge (cycle).
	if n >= 3 && rng.Float64() < 0.3 {
		blk.Joins = append(blk.Joins, query.Join{
			Left:  query.ColRef{Table: names[0], Column: "k"},
			Right: query.ColRef{Table: names[n-1], Column: "k"},
		})
	}
	// Filters.
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.5 {
			blk.Filters = append(blk.Filters, query.Filter{
				Col: query.ColRef{Table: names[i], Column: "v"}, Op: catalog.OpLt,
				Value: float64(rng.Intn(900) + 50),
			})
		}
	}
	if rng.Float64() < 0.5 {
		blk.OrderBy = &query.ColRef{Table: names[rng.Intn(n)], Column: "k"}
	}
	return scenario{cat: cat, blk: blk}
}

func randMemLaw(rng *rand.Rand) dist.Dist {
	n := 2 + rng.Intn(4)
	vals := make([]float64, n)
	probs := make([]float64, n)
	for i := range vals {
		vals[i] = math.Trunc(3 + rng.Float64()*3000)
		probs[i] = rng.Float64() + 0.05
	}
	return dist.MustNew(vals, probs)
}

// TestTheorem21 (experiment E3): the System R DP's plan cost equals the
// exhaustive left-deep minimum at a fixed memory point.
func TestTheorem21(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(3) // 2..4 relations
		sc := randScenario(rng, n)
		mem := math.Trunc(3 + rng.Float64()*2000)
		got, err := LSC(sc.cat, sc.blk, Options{}, mem)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := ExhaustiveLSC(sc.cat, sc.blk, Options{}, mem)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !relClose(got.EC, want.EC) {
			t.Fatalf("trial %d (mem %v): DP %v vs exhaustive %v\nDP plan:\n%s\nOracle plan:\n%s",
				trial, mem, got.EC, want.EC, got.Plan, want.Plan)
		}
		// The DP's incremental score must equal the independent evaluator.
		ev, err := ExpectedCostModel(cost.ModelPaper, got.Plan, []dist.Dist{dist.Point(mem)})
		if err != nil {
			t.Fatal(err)
		}
		if !relClose(got.EC, ev) {
			t.Fatalf("trial %d: DP score %v vs evaluator %v", trial, got.EC, ev)
		}
	}
}

// TestTheorem33 (experiment E7): Algorithm C's plan expected cost equals
// the exhaustive LEC minimum under a static law, and the algorithm
// hierarchy EC(C) ≤ EC(B) ≤ EC(A) ≤ EC(LSC@mean) holds.
func TestTheorem33(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(3)
		sc := randScenario(rng, n)
		mem := randMemLaw(rng)
		laws := []dist.Dist{mem}

		resC, err := AlgorithmC(sc.cat, sc.blk, Options{}, mem)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		oracle, err := ExhaustiveLEC(sc.cat, sc.blk, Options{}, laws)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !relClose(resC.EC, oracle.EC) {
			t.Fatalf("trial %d: AlgC %v vs oracle %v\nAlgC plan:\n%s\nOracle plan:\n%s",
				trial, resC.EC, oracle.EC, resC.Plan, oracle.Plan)
		}
		// DP score equals independent expected-cost evaluation.
		ev, err := ExpectedCostModel(cost.ModelPaper, resC.Plan, laws)
		if err != nil {
			t.Fatal(err)
		}
		if !relClose(resC.EC, ev) {
			t.Fatalf("trial %d: DP score %v vs ExpectedCost %v", trial, resC.EC, ev)
		}

		resA, err := AlgorithmA(sc.cat, sc.blk, Options{}, mem)
		if err != nil {
			t.Fatal(err)
		}
		resB, err := AlgorithmB(sc.cat, sc.blk, Options{}, mem, 3)
		if err != nil {
			t.Fatal(err)
		}
		lsc, err := LSC(sc.cat, sc.blk, Options{}, mem.Mean())
		if err != nil {
			t.Fatal(err)
		}
		lscEC, err := ExpectedCostModel(cost.ModelPaper, lsc.Plan, laws)
		if err != nil {
			t.Fatal(err)
		}
		slack := 1e-9 * math.Max(1, lscEC)
		if resC.EC > resB.EC+slack || resB.EC > resA.EC+slack || resA.EC > lscEC+slack {
			t.Fatalf("trial %d: hierarchy violated: C=%v B=%v A=%v LSC=%v",
				trial, resC.EC, resB.EC, resA.EC, lscEC)
		}
	}
}

// TestTheorem34 (experiment E9): with Markov per-phase memory, dynamic
// Algorithm C equals the exhaustive oracle run on the same phase laws, and
// its expected cost equals the full memory-sequence enumeration — the law
// of total expectation across phases.
func TestTheorem34(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(2) // 3..4 relations → 2..3 phases
		sc := randScenario(rng, n)
		states := []float64{5, 40, 900}
		chain, err := dist.RandomWalk(states, 0.1+0.3*rng.Float64(), 0.1+0.3*rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		init := dist.MustNew(states, []float64{rng.Float64() + 0.1, rng.Float64() + 0.1, rng.Float64() + 0.1})

		resDyn, err := AlgorithmCDynamic(sc.cat, sc.blk, Options{}, init, chain)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		laws, err := chain.PhaseLaws(init, n-1)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := ExhaustiveLEC(sc.cat, sc.blk, Options{}, laws)
		if err != nil {
			t.Fatal(err)
		}
		if !relClose(resDyn.EC, oracle.EC) {
			t.Fatalf("trial %d: dynamic AlgC %v vs oracle %v", trial, resDyn.EC, oracle.EC)
		}

		// Sequence-enumeration check: EC(P) = Σ_seq Pr(seq)·C(P, seq).
		seqs, probs, err := chain.AllSeqs(init, n-1)
		if err != nil {
			t.Fatal(err)
		}
		seqEC := 0.0
		for i, seq := range seqs {
			cst, err := ExpectedCostModel(cost.ModelPaper, resDyn.Plan, dist.Points(seq))
			if err != nil {
				t.Fatal(err)
			}
			seqEC += probs[i] * cst
		}
		if !relClose(resDyn.EC, seqEC) {
			t.Fatalf("trial %d: phase-marginal EC %v vs sequence EC %v", trial, resDyn.EC, seqEC)
		}
	}
}

// TestLECNeverWorseThanLSC: the defining guarantee of Section 3.1 — for
// any law, EC(plan of Algorithm C) ≤ EC(plan of LSC at mean) and ≤ EC at
// mode, across many random scenarios.
func TestLECNeverWorseThanLSC(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	wins := 0
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(4)
		sc := randScenario(rng, n)
		mem := randMemLaw(rng)
		resC, err := AlgorithmC(sc.cat, sc.blk, Options{}, mem)
		if err != nil {
			t.Fatal(err)
		}
		for _, point := range []float64{mem.Mean(), mem.Mode()} {
			lsc, err := LSC(sc.cat, sc.blk, Options{}, point)
			if err != nil {
				t.Fatal(err)
			}
			lscEC, err := ExpectedCostModel(cost.ModelPaper, lsc.Plan, []dist.Dist{mem})
			if err != nil {
				t.Fatal(err)
			}
			if resC.EC > lscEC*(1+1e-9) {
				t.Fatalf("trial %d: LEC %v worse than LSC@%v %v", trial, resC.EC, point, lscEC)
			}
			if resC.EC < lscEC*(1-1e-9) {
				wins++
			}
		}
	}
	if wins == 0 {
		t.Fatal("LEC never strictly beat LSC across 60 random scenarios; suspicious")
	}
}

func TestSingleTableQuery(t *testing.T) {
	cat := catalog.New()
	tab := catalog.MustTable("t", 1000, 50000,
		catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: 50000, Min: 0, Max: 1e6})
	if err := cat.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	blk := &query.Block{Tables: []string{"t"}, OrderBy: &query.ColRef{Table: "t", Column: "k"}}
	mem := dist.MustNew([]float64{10, 2000}, []float64{0.5, 0.5})
	r, err := AlgorithmC(cat, blk, Options{}, mem)
	if err != nil {
		t.Fatal(err)
	}
	// Heap scan 1000 + enforcer sort: at 10 pages (∛1000=10 → 6·1000? at
	// m=10: m > cbrt? 10 > 10 false → 6·1000=6000); at 2000: free.
	approx(t, r.EC, 1000+0.5*6000, 1e-6, "single table EC")
	if r.Plan.Kind != plan.KindSort {
		t.Fatalf("expected sort enforcer, got %s", r.Plan.Signature())
	}

	// With a clustered index on k, the ordered access path avoids sorting.
	if err := cat.AddIndex(catalog.Index{Name: "ix_t", Table: "t", Column: "k", Clustered: true, Height: 2}); err != nil {
		t.Fatal(err)
	}
	r2, err := AlgorithmC(cat, blk, Options{}, mem)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Plan.Kind != plan.KindScan || r2.Plan.Access != plan.AccessIndex {
		t.Fatalf("expected index scan, got %s", r2.Plan.Signature())
	}
	approx(t, r2.EC, 2+1000, 1e-6, "index scan EC")
}

func TestIndexAccessPathChosenForSelectiveFilter(t *testing.T) {
	cat := catalog.New()
	tab := catalog.MustTable("t", 10000, 500000,
		catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: 500000, Min: 0, Max: 1e6},
		catalog.Column{Name: "v", Type: catalog.TypeInt, Distinct: 1000, Min: 0, Max: 999})
	if err := cat.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	// heapCat declares the same table without ix_v: the heap-only arm.
	heapCat := catalog.New()
	if err := heapCat.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddIndex(catalog.Index{Name: "ix_v", Table: "t", Column: "v", Clustered: true, Height: 3}); err != nil {
		t.Fatal(err)
	}
	blk := &query.Block{
		Tables:  []string{"t"},
		Filters: []query.Filter{{Col: query.ColRef{Table: "t", Column: "v"}, Op: catalog.OpEq, Value: 7}},
	}
	r, err := LSC(cat, blk, Options{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r.Plan.Access != plan.AccessIndex {
		t.Fatalf("selective equality filter should use the index, got %s", r.Plan.Signature())
	}
	// sel = 1/1000 → ceil(10000/1000)=10 pages + height 3.
	approx(t, r.EC, 13, 1e-9, "index scan cost")

	// A catalog that declares no index leaves only the heap scan.
	r2, err := LSC(heapCat, blk, Options{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Plan.Access != plan.AccessHeap {
		t.Fatal("an index-free catalog must give the heap scan")
	}
	approx(t, r2.EC, 10000, 1e-9, "heap scan cost")
}

func TestDisconnectedGraphCrossProduct(t *testing.T) {
	cat := catalog.New()
	for _, n := range []string{"x", "y"} {
		tab := catalog.MustTable(n, 10, 100,
			catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: 100, Min: 0, Max: 99})
		if err := cat.AddTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	blk := &query.Block{Tables: []string{"x", "y"}} // no join predicates
	r, err := LSC(cat, blk, Options{}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if r.Plan.Kind != plan.KindJoin {
		t.Fatal("cross product plan expected")
	}
	// σ = 1 → result pages = 100.
	approx(t, r.Plan.OutPages, 100, 1e-9, "cross product size")
	// Oracle agrees.
	want, err := ExhaustiveLSC(cat, blk, Options{}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !relClose(r.EC, want.EC) {
		t.Fatalf("DP %v vs oracle %v", r.EC, want.EC)
	}
}

func TestValidationErrorsPropagate(t *testing.T) {
	cat := catalog.New()
	blk := &query.Block{Tables: []string{"missing"}}
	if _, err := LSC(cat, blk, Options{}, 10); err == nil {
		t.Fatal("missing table should fail")
	}
	if _, err := AlgorithmC(cat, blk, Options{}, dist.Point(10)); err == nil {
		t.Fatal("missing table should fail (C)")
	}
	if _, err := AlgorithmB(cat, blk, Options{}, dist.Point(10), 0); err == nil {
		t.Fatal("c=0 should fail")
	}
	if _, err := ExhaustiveLEC(cat, blk, Options{}, nil); err == nil {
		t.Fatal("no laws should fail")
	}
}

func TestExpectedCostErrors(t *testing.T) {
	if _, err := ExpectedCostModel(cost.ModelPaper, &plan.Node{Kind: plan.KindJoin}, []dist.Dist{dist.Point(1)}); err == nil {
		t.Fatal("invalid plan should fail")
	}
	s := plan.NewScan("t", plan.AccessHeap, "", 1, 10)
	if _, err := ExpectedCostModel(cost.ModelPaper, s, nil); err == nil {
		t.Fatal("no laws should fail")
	}
	// An unfiltered heap handoff is charged by its consumer: EC 0.
	got, err := ExpectedCostModel(cost.ModelPaper, s, []dist.Dist{dist.Point(1)})
	if err != nil || got != 0 {
		t.Fatalf("handoff scan EC = %v, %v", got, err)
	}
	ix := plan.NewScan("t", plan.AccessIndex, "ix_t", 1, 10)
	ix.IO = 7
	got, err = ExpectedCostModel(cost.ModelPaper, ix, []dist.Dist{dist.Point(1)})
	if err != nil || got != 7 {
		t.Fatalf("index scan EC = %v, %v", got, err)
	}
}

func TestEdgeKeyCanonical(t *testing.T) {
	j1 := query.Join{Left: query.ColRef{Table: "a", Column: "x"}, Right: query.ColRef{Table: "b", Column: "y"}}
	j2 := query.Join{Left: query.ColRef{Table: "b", Column: "y"}, Right: query.ColRef{Table: "a", Column: "x"}}
	if EdgeKey(j1) != EdgeKey(j2) || EdgeKey(j1) != "a.x=b.y" {
		t.Fatalf("EdgeKey not canonical: %q vs %q", EdgeKey(j1), EdgeKey(j2))
	}
}

package engine

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lecopt/internal/cost"
	"lecopt/internal/feedback"
	"lecopt/internal/plan"
	"lecopt/internal/storage"
)

// loadTriple generates three relations A, B, C joined on "k".
func loadTriple(t *testing.T, seed int64, pa, pb, pc int, keyRange int64) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := storage.NewStore()
	for _, spec := range []struct {
		name  string
		pages int
	}{{"A", pa}, {"B", pb}, {"C", pc}} {
		rel, err := storage.Generate(storage.GenSpec{
			Name: spec.name, Pages: spec.pages, TuplesPerPage: 6, KeyRange: keyRange,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Add(rel); err != nil {
			t.Fatal(err)
		}
	}
	return New(s)
}

// refTripleJoin counts A⋈B⋈C rows by brute force.
func refTripleJoin(t *testing.T, e *Engine) int {
	t.Helper()
	a, _ := e.store.Get("A")
	b, _ := e.store.Get("B")
	c, _ := e.store.Get("C")
	count := 0
	byKeyB := map[int64]int{}
	for _, bt := range b.AllTuples() {
		byKeyB[bt[0]]++
	}
	byKeyC := map[int64]int{}
	for _, ct := range c.AllTuples() {
		byKeyC[ct[0]]++
	}
	for _, at := range a.AllTuples() {
		count += byKeyB[at[0]] * byKeyC[at[0]]
	}
	return count
}

func triplePlan(m1, m2 cost.JoinMethod, withSort bool) *plan.Node {
	a := plan.NewScan("A", plan.AccessHeap, "", 1, 12)
	b := plan.NewScan("B", plan.AccessHeap, "", 1, 8)
	c := plan.NewScan("C", plan.AccessHeap, "", 1, 6)
	j1 := plan.NewJoin(m1, a, b, 10, plan.Order{})
	j2 := plan.NewJoin(m2, j1, c, 5, plan.Order{})
	if withSort {
		return plan.NewSort(j2, plan.Order{Table: "A", Column: "k"})
	}
	return j2
}

// TestExecutePlanCorrectness: every method combination produces exactly
// the reference join cardinality, across memory budgets.
func TestExecutePlanCorrectness(t *testing.T) {
	e := loadTriple(t, 3, 12, 8, 6, 25)
	want := refTripleJoin(t, e)
	if want == 0 {
		t.Fatal("test data should produce matches")
	}
	methods := []cost.JoinMethod{cost.SortMerge, cost.GraceHash, cost.PageNL, cost.BlockNL}
	for _, m1 := range methods {
		for _, m2 := range methods {
			for _, mem := range []float64{4, 10, 60} {
				res, err := e.ExecutePlan(triplePlan(m1, m2, false), []float64{mem, mem})
				if err != nil {
					t.Fatalf("%v/%v mem %v: %v", m1, m2, mem, err)
				}
				if got := res.Output.NumTuples(); got != want {
					t.Fatalf("%v/%v mem %v: %d rows, want %d", m1, m2, mem, got, want)
				}
				e.store.Drop(res.Output.Name)
			}
		}
	}
}

// TestExecutePlanSortedOutput: a root sort enforcer yields ordered output
// and the result survives the per-phase memory model.
func TestExecutePlanSortedOutput(t *testing.T) {
	e := loadTriple(t, 5, 12, 8, 6, 20)
	res, err := e.ExecutePlan(triplePlan(cost.GraceHash, cost.GraceHash, true), []float64{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	all := res.Output.AllTuples()
	if len(all) == 0 {
		t.Fatal("no output")
	}
	// The sort column is the qualified outer key.
	ci, err := res.Output.ColIndex("o.o.k")
	if err != nil {
		t.Fatalf("output cols: %v", res.Output.Cols)
	}
	for i := 1; i < len(all); i++ {
		if all[i][ci] < all[i-1][ci] {
			t.Fatal("output not sorted")
		}
	}
}

// TestExecutePlanPhaseMemories: phase 1 under tiny memory must cost more
// than under ample memory while phase 0 stays identical (same inputs,
// same budget).
func TestExecutePlanPhaseMemories(t *testing.T) {
	p := triplePlan(cost.SortMerge, cost.SortMerge, false)
	e1 := loadTriple(t, 7, 16, 12, 10, 40)
	rich, err := e1.ExecutePlan(p, []float64{6, 60})
	if err != nil {
		t.Fatal(err)
	}
	e2 := loadTriple(t, 7, 16, 12, 10, 40)
	poor, err := e2.ExecutePlan(p, []float64{6, 3})
	if err != nil {
		t.Fatal(err)
	}
	if rich.PhaseIO[0] != poor.PhaseIO[0] {
		t.Fatalf("phase 0 should be unaffected: %d vs %d", rich.PhaseIO[0], poor.PhaseIO[0])
	}
	if !(rich.PhaseIO[1] < poor.PhaseIO[1]) {
		t.Fatalf("phase 1 should be cheaper with memory: %d vs %d", rich.PhaseIO[1], poor.PhaseIO[1])
	}
	if rich.Stats.IO() != rich.PhaseIO[0]+rich.PhaseIO[1] {
		t.Fatal("phase breakdown must sum to the total")
	}
}

// TestExecutePlanNoTempLeak: temporaries are dropped, only the output
// remains.
func TestExecutePlanNoTempLeak(t *testing.T) {
	e := loadTriple(t, 9, 12, 8, 6, 25)
	before := len(e.store.Names())
	res, err := e.ExecutePlan(triplePlan(cost.SortMerge, cost.GraceHash, true), []float64{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	after := len(e.store.Names())
	if after != before+1 {
		t.Fatalf("temp leak: %d -> %d (%v)", before, after, e.store.Names())
	}
	e.store.Drop(res.Output.Name)
}

func TestExecutePlanErrors(t *testing.T) {
	e := loadTriple(t, 11, 4, 4, 4, 10)
	p := triplePlan(cost.SortMerge, cost.SortMerge, false)
	if _, err := e.ExecutePlan(p, []float64{10}); !errors.Is(err, errShortMems) {
		t.Fatal("short memory sequence")
	}
	bad := triplePlan(cost.SortMerge, cost.SortMerge, false)
	bad.Left.Left.Table = "missing"
	if _, err := e.ExecutePlan(bad, []float64{10, 10}); !errors.Is(err, storage.ErrNoRelation) {
		t.Fatal("missing relation")
	}
	bushy := plan.NewJoin(cost.PageNL,
		plan.NewScan("A", plan.AccessHeap, "", 1, 4),
		plan.NewJoin(cost.PageNL,
			plan.NewScan("B", plan.AccessHeap, "", 1, 4),
			plan.NewScan("C", plan.AccessHeap, "", 1, 4), 4, plan.Order{}),
		4, plan.Order{})
	if _, err := e.ExecutePlan(bushy, []float64{10, 10}); !errors.Is(err, errNotLeftDeep) {
		t.Fatal("bushy plan")
	}
	var nilPlan *plan.Node
	if _, err := e.ExecutePlan(nilPlan, []float64{10}); err == nil {
		t.Fatal("nil plan")
	}
}

// TestExecutePlanSingleScanWithSort: one-table plan with an enforcer.
func TestExecutePlanSingleScanWithSort(t *testing.T) {
	e := loadTriple(t, 13, 10, 4, 4, 15)
	scan := plan.NewScan("A", plan.AccessHeap, "", 1, 10)
	sorted := plan.NewSort(scan, plan.Order{Table: "A", Column: "k"})
	res, err := e.ExecutePlan(sorted, []float64{4})
	if err != nil {
		t.Fatal(err)
	}
	all := res.Output.AllTuples()
	for i := 1; i < len(all); i++ {
		if all[i][0] < all[i-1][0] {
			t.Fatal("not sorted")
		}
	}
	if res.Stats.IO() == 0 {
		t.Fatal("external sort of 10 pages with 4 buffers must do I/O")
	}
}

// TestExecutePlanJoinSizes: the executor reports every join's observed
// output pages, keyed by the canonical table-set key, matching the
// materialized relations exactly — the raw input of result-size feedback.
func TestExecutePlanJoinSizes(t *testing.T) {
	e := loadTriple(t, 11, 12, 8, 6, 40)
	p := triplePlan(cost.SortMerge, cost.GraceHash, false)
	res, err := e.ExecutePlan(p, []float64{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.store.Drop(res.Output.Name)
	if len(res.JoinSizes) != 2 {
		t.Fatalf("want 2 join observations, got %v", res.JoinSizes)
	}
	ab, ok := res.JoinSizes[feedback.SetKey("A", "B")]
	if !ok || ab <= 0 {
		t.Fatalf("missing A+B observation: %v", res.JoinSizes)
	}
	abc, ok := res.JoinSizes[feedback.SetKey("A", "B", "C")]
	if !ok {
		t.Fatalf("missing A+B+C observation: %v", res.JoinSizes)
	}
	if got := float64(res.Output.NumPages()); abc != got {
		t.Fatalf("final join observation %v != output pages %v", abc, got)
	}
	// Sizes are shape-independent facts about the data: the mirrored join
	// order must observe the same final size.
	a := plan.NewScan("A", plan.AccessHeap, "", 1, 12)
	b := plan.NewScan("B", plan.AccessHeap, "", 1, 8)
	c := plan.NewScan("C", plan.AccessHeap, "", 1, 6)
	j1 := plan.NewJoin(cost.GraceHash, b, c, 10, plan.Order{})
	j2 := plan.NewJoin(cost.SortMerge, j1, a, 5, plan.Order{})
	res2, err := e.ExecutePlan(j2, []float64{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.store.Drop(res2.Output.Name)
	if got := res2.JoinSizes[feedback.SetKey("A", "B", "C")]; got != abc {
		t.Fatalf("join order changed the observed size: %v vs %v", got, abc)
	}
}

// TestExecutePlanUnboundedMemory: an infinite (or absurdly large) budget is
// the model's MaxInt32 pages, not int(+Inf) wrapped negative and floored to
// the 3-page minimum — engine and cost.MemPages must agree on what a memory
// value buys, and PhaseMem must report what the operators actually got.
func TestExecutePlanUnboundedMemory(t *testing.T) {
	p := triplePlan(cost.SortMerge, cost.GraceHash, true)
	run := func(mem float64) ExecResult {
		t.Helper()
		e := loadTriple(t, 21, 12, 8, 6, 25)
		res, err := e.ExecutePlan(p, []float64{mem, mem})
		if err != nil {
			t.Fatalf("mem %v: %v", mem, err)
		}
		return res
	}
	ample, floor := run(1e6), run(3)
	if ample.Stats.IO() >= floor.Stats.IO() {
		t.Fatalf("test needs memory to matter: %d vs %d I/Os", ample.Stats.IO(), floor.Stats.IO())
	}
	for _, mem := range []float64{math.Inf(1), 1e30, math.MaxInt32, math.MaxInt32 + 1} {
		res := run(mem)
		if res.Stats != ample.Stats {
			t.Errorf("mem %v: %+v, an ample budget pays %+v (the 3-page floor pays %+v)", mem, res.Stats, ample.Stats, floor.Stats)
		}
		if cost.MemPages(mem) != math.MaxInt32 {
			t.Errorf("mem %v: the model converts it to %d pages", mem, cost.MemPages(mem))
		}
		for i, m := range res.PhaseMem {
			if m != math.MaxInt32 {
				t.Errorf("mem %v: PhaseMem[%d] = %v, want MaxInt32", mem, i, m)
			}
		}
	}
	if got := run(2.5).PhaseMem[0]; got != 3 {
		t.Errorf("PhaseMem below the floor = %v, want 3", got)
	}
	if got := run(7.9).PhaseMem[1]; got != 7 {
		t.Errorf("PhaseMem truncates to whole pages: %v, want 7", got)
	}
}

// TestExecutePlanNaNMemory: NaN is rejected with a typed error before any
// temporary exists, in any phase.
func TestExecutePlanNaNMemory(t *testing.T) {
	e := loadTriple(t, 22, 12, 8, 6, 25)
	before := e.store.Names()
	for _, mem := range [][]float64{{math.NaN(), 10}, {10, math.NaN()}} {
		if _, err := e.ExecutePlan(triplePlan(cost.SortMerge, cost.PageNL, true), mem); !errors.Is(err, errBadMemory) {
			t.Fatalf("mem %v: err = %v, want errBadMemory", mem, err)
		}
		if after := e.store.Names(); len(after) != len(before) {
			t.Fatalf("mem %v: temps created before the check: %v", mem, after)
		}
	}
}

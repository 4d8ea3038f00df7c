package plan_test

import (
	"errors"
	"math"
	"testing"

	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/optimizer"
	"lecopt/internal/plan"
)

// C(P, v) at a memory value or a per-phase memory trajectory is the
// optimizer's evaluator over point laws. These tests pin the plan's phase
// attribution and scan conventions through that one evaluator.

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v", msg, got, want)
	}
}

// costAt returns C(P, v) under the paper's model at the per-phase
// trajectory mem; one value is a constant memory.
func costAt(t *testing.T, p *plan.Node, mem ...float64) float64 {
	t.Helper()
	c, err := optimizer.ExpectedCostModel(cost.ModelPaper, p, dist.Points(mem))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// costPhases returns the per-phase breakdown of C(P, v).
func costPhases(t *testing.T, p *plan.Node, mem ...float64) []float64 {
	t.Helper()
	ph, err := optimizer.ExpectedCostPhasesModel(cost.ModelPaper, p, dist.Points(mem))
	if err != nil {
		t.Fatal(err)
	}
	return ph
}

// heapJoin builds Join(method, Scan(a), Scan(b)) with given page sizes.
func heapJoin(method cost.JoinMethod, aPages, bPages, outPages float64) *plan.Node {
	a := plan.NewScan("a", plan.AccessHeap, "", 1, aPages)
	b := plan.NewScan("b", plan.AccessHeap, "", 1, bPages)
	var ord plan.Order
	if method.OrdersOutput() {
		ord = plan.Order{Table: "a", Column: "k"}
	}
	return plan.NewJoin(method, a, b, outPages, ord)
}

func TestCostAtTwoWay(t *testing.T) {
	// Unfiltered heap scans are free — the sort-merge join's 2(|A|+|B|)
	// already reads both inputs (the paper's Example 1.1 convention).
	p := heapJoin(cost.SortMerge, 100, 40, 10)
	m := 50.0 // > √100 → 2 passes
	want := 2 * (100 + 40)
	approx(t, costAt(t, p, m), float64(want), 1e-9, "two-way cost")
}

func TestCostAtRespectsFilterSelectivity(t *testing.T) {
	// Unfiltered heap handoff: no separate charge (consumer pays).
	s := plan.NewScan("a", plan.AccessHeap, "", 0.1, 10)
	approx(t, s.BasePages(), 100, 1e-9, "base pages")
	if s.Materialized() {
		t.Fatal("heap scan without compiled predicate is a handoff")
	}
	approx(t, costAt(t, s, 1000), 0, 1e-9, "handoff scan is charged by its consumer")
	// A compiled predicate materializes the filtered pages: every base
	// page is read during the scan.
	f := plan.NewScan("a", plan.AccessHeap, "", 0.1, 10)
	f.Pred = &plan.ScanPred{Column: "k", Hi: 3, HasHi: true}
	if !f.Materialized() {
		t.Fatal("filtered heap scan materializes")
	}
	approx(t, costAt(t, f, 1000), 100, 1e-9, "filtered scan reads base pages")
	// Index scan with explicit IO annotation uses it.
	ix := plan.NewScan("a", plan.AccessIndex, "ix_a", 0.1, 10)
	ix.IO = 12
	if !ix.Materialized() {
		t.Fatal("index scan materializes")
	}
	approx(t, costAt(t, ix, 1000), 12, 1e-9, "index scan uses annotated IO")
}

func TestCostSeqPhases(t *testing.T) {
	// ((a ⋈SM b) ⋈GH c): phase 0 = SM join + scans a,b; phase 1 = GH join + scan c.
	j2 := heapJoin(cost.SortMerge, 100, 40, 20)
	c := plan.NewScan("c", plan.AccessHeap, "", 1, 30)
	j3 := plan.NewJoin(cost.GraceHash, j2, c, 5, plan.Order{})

	// Memory 50 in phase 0 (SM: √100=10 < 50 → 2(140)=280)
	// memory 3 in phase 1 (GH: min(20,30)=20, ∛20≈2.71 < 3 ≤ √20≈4.47 → 4·50=200).
	// Heap scans are handoffs: the joins pay all input reads.
	got := costAt(t, j3, 50, 3)
	approx(t, got, 280+200, 1e-9, "per-phase costing")

	// The breakdown attributes each join to its own phase.
	ph := costPhases(t, j3, 50, 3)
	if len(ph) != 2 {
		t.Fatalf("phase breakdown len = %d, want 2", len(ph))
	}
	approx(t, ph[0], 280, 1e-9, "phase 0 = SM join")
	approx(t, ph[1], 200, 1e-9, "phase 1 = GH join")

	// Same per-phase memories but swapped: the cost must differ because
	// phases see different formulas.
	got2 := costAt(t, j3, 3, 50)
	if got2 == got {
		t.Fatal("phase assignment must matter")
	}
	// SM at 3 (∛100≈4.64 ≥ 3 → 6·140=840), GH at 50 (≥ 20+2 → one pass, 50).
	approx(t, got2, 840+50, 1e-9, "swapped phases")

	// A trajectory shorter than the phase count (and not a single static
	// value) is an error, not a silently repeated last phase.
	j4 := plan.NewJoin(cost.PageNL, j3, plan.NewScan("d", plan.AccessHeap, "", 1, 8), 2, plan.Order{})
	if _, err := optimizer.ExpectedCostModel(cost.ModelPaper, j4, dist.Points([]float64{50, 3})); !errors.Is(err, optimizer.ErrLawsShort) {
		t.Fatalf("short trajectory: err %v, want ErrLawsShort", err)
	}
}

func TestCostSeqSortEnforcer(t *testing.T) {
	j2 := heapJoin(cost.GraceHash, 100, 40, 30)
	root := plan.NewSort(j2, plan.Order{Table: "a", Column: "k"})
	// Phase 0 memory 20: GH (√40≈6.3 < 20 → 2·140=280), sort 30 pages
	// (30 > 20, √30≈5.5 < 20 → 2·30=60). Scans are join-paid handoffs.
	approx(t, costAt(t, root, 20), 280+60, 1e-9, "enforcer sort costed in its phase")
	// Sort over a bare scan uses phase 0, and pays the base read itself:
	// no join ever consumes the handoff.
	s := plan.NewSort(plan.NewScan("a", plan.AccessHeap, "", 1, 100), plan.Order{Table: "a", Column: "k"})
	// scan 100 (read by the sort) + sort 100 at mem 8 (∛100≈4.6 < 8 ≤ 10 → 4·100).
	approx(t, costAt(t, s, 8), 100+400, 1e-9, "sort over scan")
}

func TestCostAtInvalidPlanErrors(t *testing.T) {
	bad := &plan.Node{Kind: plan.KindJoin}
	if _, err := optimizer.ExpectedCostModel(cost.ModelPaper, bad, dist.Points([]float64{10})); !errors.Is(err, plan.ErrShape) {
		t.Fatalf("invalid plan: err %v, want plan.ErrShape", err)
	}
}

// TestConstMem: one memory value is a constant memory — the single law
// is repeated for every phase.
func TestConstMem(t *testing.T) {
	j3 := plan.NewJoin(cost.GraceHash, heapJoin(cost.SortMerge, 100, 40, 20), plan.NewScan("c", plan.AccessHeap, "", 1, 30), 5, plan.Order{})
	if got, want := costAt(t, j3, 42), costAt(t, j3, 42, 42); got != want {
		t.Fatalf("constant memory %v, repeated trajectory %v", got, want)
	}
}

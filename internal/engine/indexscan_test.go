package engine

import (
	"math"
	"math/rand"
	"testing"

	"lecopt/internal/cost"
	"lecopt/internal/plan"
	"lecopt/internal/storage"
)

// indexAgreementBand is the asserted engine-vs-cost.IndexScanIO band
// (worst symmetric ratio max(measured/model, model/measured)) over the
// selectivity sweep below. The formula charges height + ⌈sel·pages⌉
// (clustered) or height + ⌈sel·rows⌉ (unclustered); the engine
// additionally reads the covering leaf pages (the formula drops them) and
// an unclustered walk's streaming frames dedupe adjacent same-page
// fetches (the formula charges every row) — both bounded, shape-preserving
// discrepancies, observed well inside 2x.
const indexAgreementBand = 4.0

// loadIndexed builds a store with one table of the given pages (sorted
// when clustered) plus an index on "k", returning engine, index, pages,
// rows.
func loadIndexed(t *testing.T, seed int64, pages, tpp, fanout int, keyRange int64, clustered bool) (*Engine, *storage.Index) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	spec := storage.GenSpec{Name: "T", Pages: pages, TuplesPerPage: tpp, KeyRange: keyRange}
	var rel *storage.Relation
	var err error
	if clustered {
		rel, err = storage.GenerateSorted(spec, rng)
	} else {
		rel, err = storage.Generate(spec, rng)
	}
	if err != nil {
		t.Fatal(err)
	}
	s := storage.NewStore()
	if err := s.Add(rel); err != nil {
		t.Fatal(err)
	}
	ix, err := storage.BuildIndex(s, "ix_T_k", "T", "k", clustered, fanout)
	if err != nil {
		t.Fatal(err)
	}
	return New(s), ix
}

// TestIndexScanModelAgreement is the engine-vs-cost.IndexScanIO property:
// over clustered and unclustered indexes and a selectivity sweep from a
// single key to the full range, the measured walk I/O stays within the
// documented band of the analytic formula evaluated at the *realized*
// selectivity (isolating the operator from estimation error).
func TestIndexScanModelAgreement(t *testing.T) {
	const (
		pages    = 64
		tpp      = 6
		fanout   = 16
		keyRange = 600
	)
	for _, clustered := range []bool{true, false} {
		eng, ix := loadIndexed(t, 11, pages, tpp, fanout, keyRange, clustered)
		rel, _ := eng.store.Get("T")
		rows := float64(rel.NumTuples())
		for _, hi := range []int64{0, 5, 29, 59, 179, 359, 599} {
			pred := &plan.ScanPred{Column: "k", Hi: float64(hi), HasHi: true}
			out, st, err := eng.IndexScan("ix_T_k", pred)
			if err != nil {
				t.Fatal(err)
			}
			matched := out.NumTuples()
			eng.store.Drop(out.Name)
			selReal := float64(matched) / rows
			model := cost.IndexScanIO(float64(ix.Height()), selReal, float64(pages), rows, clustered)
			if matched == 0 {
				// Empty result: the walk still pays the root-to-leaf path.
				if st.IO() > int64(ix.Height())+1 {
					t.Fatalf("empty range cost %d I/Os", st.IO())
				}
				continue
			}
			measured := float64(st.IO())
			ratio := math.Max(measured/model, model/measured)
			t.Logf("clustered=%v hi=%d sel=%.3f measured=%v model=%v ratio=%.2f",
				clustered, hi, selReal, measured, model, ratio)
			if ratio > indexAgreementBand {
				t.Errorf("clustered=%v hi=%d: measured %v vs model %v, symmetric ratio %.2f > %v",
					clustered, hi, measured, model, ratio, indexAgreementBand)
			}
		}
	}
}

// TestIndexScanHeapCrossover: the measured costs cross over exactly as the
// formulas promise — a selective index walk beats the full heap scan, and
// at sel→1 an unclustered walk loses to it (one fetch per row vs one read
// per page), while a clustered walk stays within its leaf overhead of it.
func TestIndexScanHeapCrossover(t *testing.T) {
	const pages = 64
	for _, clustered := range []bool{true, false} {
		eng, _ := loadIndexed(t, 13, pages, 6, 16, 600, clustered)
		heapIO := int64(pages) // cost.ScanIO: one read per page

		selective := &plan.ScanPred{Column: "k", Hi: 20, HasHi: true}
		out, st, err := eng.IndexScan("ix_T_k", selective)
		if err != nil {
			t.Fatal(err)
		}
		eng.store.Drop(out.Name)
		if st.IO() >= heapIO {
			t.Errorf("clustered=%v: selective index scan %d I/Os >= heap %d", clustered, st.IO(), heapIO)
		}

		out, st, err = eng.IndexScan("ix_T_k", nil) // full range
		if err != nil {
			t.Fatal(err)
		}
		eng.store.Drop(out.Name)
		if clustered {
			if st.IO() > 2*heapIO {
				t.Errorf("clustered full walk %d I/Os vs heap %d: leaf overhead out of band", st.IO(), heapIO)
			}
		} else if st.IO() <= heapIO {
			t.Errorf("unclustered full walk %d I/Os should lose to heap %d", st.IO(), heapIO)
		}
	}
}

// TestIndexScanResidualPredicate: a predicate on a non-indexed column is
// applied residually during the walk — full-range I/O, filtered output.
func TestIndexScanResidualPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rel, err := storage.Generate(storage.GenSpec{
		Name: "T", Pages: 16, TuplesPerPage: 6, KeyRange: 50, PayloadCols: 1,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	s := storage.NewStore()
	if err := s.Add(rel); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.BuildIndex(s, "ix_T_k", "T", "k", false, 8); err != nil {
		t.Fatal(err)
	}
	eng := New(s)
	// p0 is rng noise; filter on its median-ish magnitude.
	pred := &plan.ScanPred{Column: "p0", Hi: float64(1 << 62), HasHi: true}
	want := 0
	ci, _ := rel.ColIndex("p0")
	for _, tp := range rel.AllTuples() {
		if float64(tp[ci]) <= float64(int64(1)<<62) {
			want++
		}
	}
	out, _, err := eng.IndexScan("ix_T_k", pred)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumTuples() != want {
		t.Fatalf("residual filter kept %d rows, want %d", out.NumTuples(), want)
	}
	bad := &plan.ScanPred{Column: "zz"}
	if _, _, err := eng.IndexScan("ix_T_k", bad); err == nil {
		t.Fatal("unknown predicate column must fail")
	}
}

// TestPageNLResidencyPinsSmallerSide is the residency-fix regression: with
// the plan's outer smaller than the inner and memory in [outer+2,
// inner+2), the engine must realize the formula's cheap case |A|+|B| by
// pinning the small side resident — the historical behavior paid
// |A|+|A|·|B| here, a 9.35x band on the serving corpus.
func TestPageNLResidencyPinsSmallerSide(t *testing.T) {
	e := loadPair(t, 19, 6, 20, 4, 1000) // outer A=6 pages, inner B=20
	spec := JoinSpec{Method: cost.PageNL, Outer: "A", Inner: "B", OuterCol: "k", InnerCol: "k"}

	// M = 10 ∈ [outer+2, inner+2) = [8, 22): small outer must go resident.
	_, st, err := e.join(spec, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.IO(), int64(6+20); got != want {
		t.Fatalf("residency window: IO=%d want %d (formula cheap case)", got, want)
	}
	if model := cost.JoinIOModel(cost.ModelPaper, cost.PageNL, 6, 20, 10); model != 6+20 {
		t.Fatalf("formula disagrees with itself: %v", model)
	}

	// Below the window nothing fits: the plan's outer drives and the
	// expensive case realizes the formula exactly.
	_, st, err = e.join(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.IO(), int64(6+6*20); got != want {
		t.Fatalf("expensive case: IO=%d want %d", got, want)
	}
}

// TestNestedLoopPreservesOuterOrder: the optimizer's order propagation
// says nested loops preserve the *outer's* order (an index-ordered outer
// may satisfy ORDER BY with no sort above), so both nested-loop variants
// must emit in outer row order — including page-NL's pinned-small-outer
// path, whose driving scan is the inner. (Regression: the residency fix
// originally emitted in inner order when flipped.)
func TestNestedLoopPreservesOuterOrder(t *testing.T) {
	s := storage.NewStore()
	outerRel, err := storage.NewRelation("O", []string{"k"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{1, 2, 3, 4} {
		if err := outerRel.Append(storage.Tuple{k}); err != nil {
			t.Fatal(err)
		}
	}
	innerRel, err := storage.NewRelation("I", []string{"k"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Inner stored in descending order: inner-driven emission would
	// reverse the output.
	for k := int64(4); k >= 1; k-- {
		for rep := 0; rep < 3; rep++ {
			if err := innerRel.Append(storage.Tuple{k}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, r := range []*storage.Relation{outerRel, innerRel} {
		if err := s.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	e := New(s)
	for _, method := range []cost.JoinMethod{cost.PageNL, cost.BlockNL} {
		for _, mem := range []int{10, 4} { // pinned window and tight memory
			res, st, err := e.join(JoinSpec{
				Method: method, Outer: "O", Inner: "I", OuterCol: "k", InnerCol: "k",
			}, mem)
			if err != nil {
				t.Fatal(err)
			}
			all := res.AllTuples()
			if len(all) != 12 {
				t.Fatalf("%v mem=%d: %d rows, want 12", method, mem, len(all))
			}
			for i := 1; i < len(all); i++ {
				if all[i][0] < all[i-1][0] {
					t.Fatalf("%v mem=%d (IO %d): output not in outer order at row %d: %v after %v",
						method, mem, st.IO(), i, all[i][0], all[i-1][0])
				}
			}
			s.Drop(res.Name)
		}
	}
}

// TestExecutorIndexPlan: a full left-deep plan whose leaves are index
// scans executes end to end, produces exactly the filtered join result,
// and books the access-path I/O into phase 0.
func TestExecutorIndexPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := storage.NewStore()
	relA, err := storage.GenerateSorted(storage.GenSpec{Name: "A", Pages: 12, TuplesPerPage: 6, KeyRange: 40}, rng)
	if err != nil {
		t.Fatal(err)
	}
	relB, err := storage.Generate(storage.GenSpec{Name: "B", Pages: 8, TuplesPerPage: 6, KeyRange: 40}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*storage.Relation{relA, relB} {
		if err := s.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := storage.BuildIndex(s, "ix_A_k", "A", "k", true, 12); err != nil {
		t.Fatal(err)
	}
	e := New(s)

	pred := &plan.ScanPred{Column: "k", Hi: 19, HasHi: true}
	scanA := plan.NewScan("A", plan.AccessIndex, "ix_A_k", 0.5, 6)
	scanA.Pred = pred
	scanB := plan.NewScan("B", plan.AccessHeap, "", 0.5, 4)
	scanB.Pred = pred
	p := plan.NewJoin(cost.GraceHash, scanA, scanB, 4, plan.Order{})

	res, err := e.ExecutePlan(p, []float64{9})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	byKey := map[int64]int{}
	for _, bt := range relB.AllTuples() {
		if bt[0] <= 19 {
			byKey[bt[0]]++
		}
	}
	for _, at := range relA.AllTuples() {
		if at[0] <= 19 {
			want += byKey[at[0]]
		}
	}
	if got := res.Output.NumTuples(); got != want {
		t.Fatalf("filtered index-plan join: %d rows, want %d", got, want)
	}
	if res.Stats.IO() != res.PhaseIO[0] {
		t.Fatalf("phase accounting leaks: total %d vs phase %v", res.Stats.IO(), res.PhaseIO)
	}
	// The single-table observed sizes must be reported for feedback.
	if res.JoinSizes["A"] <= 0 || res.JoinSizes["B"] <= 0 {
		t.Fatalf("scan sizes not observed: %v", res.JoinSizes)
	}
	s.Drop(res.Output.Name)
}

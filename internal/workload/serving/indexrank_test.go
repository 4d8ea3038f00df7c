package serving

import (
	"math/rand"
	"testing"

	"lecopt/internal/catalog"
	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/engine"
	"lecopt/internal/optimizer"
	"lecopt/internal/plan"
	"lecopt/internal/query"
	"lecopt/internal/storage"
)

// TestIndexPlanRankAgreement is the E15/E17-style check for the new access
// path: over a two-table filtered join, the optimizer's index plan and the
// heap-only alternative are both *executed*, and at every probed memory
// level the realized I/O must rank the two plans exactly as their analytic
// C(P, v) does. This is the end-to-end property the serving loop rests on:
// when the model says the index plan is cheaper, executing it really is.
func TestIndexPlanRankAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	store := storage.NewStore()
	cat := catalog.New()
	heapCat := catalog.New() // the same tables without their indexes
	specs := []struct {
		name   string
		pages  int
		sorted bool
	}{{"t0", 48, true}, {"t1", 24, false}}
	const (
		tpp      = 6
		keyRange = 600
	)
	for _, sp := range specs {
		gen := storage.GenSpec{Name: sp.name, Pages: sp.pages, TuplesPerPage: tpp, KeyRange: keyRange}
		var rel *storage.Relation
		var err error
		if sp.sorted {
			rel, err = storage.GenerateSorted(gen, rng)
		} else {
			rel, err = storage.Generate(gen, rng)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Add(rel); err != nil {
			t.Fatal(err)
		}
		tab, err := catalog.NewTable(sp.name, float64(sp.pages), float64(sp.pages*tpp),
			catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: keyRange, Min: 0, Max: keyRange})
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddTable(tab); err != nil {
			t.Fatal(err)
		}
		if err := heapCat.AddTable(tab); err != nil {
			t.Fatal(err)
		}
		ixName := "ix_" + sp.name + "_k"
		ix, err := storage.BuildIndex(store, ixName, sp.name, "k", sp.sorted, 16)
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddIndex(catalog.Index{
			Name: ixName, Table: sp.name, Column: "k",
			Clustered: sp.sorted, Height: float64(ix.Height()),
		}); err != nil {
			t.Fatal(err)
		}
	}
	blk := &query.Block{
		Tables: []string{"t0", "t1"},
		Joins: []query.Join{{
			Left:  query.ColRef{Table: "t0", Column: "k"},
			Right: query.ColRef{Table: "t1", Column: "k"},
		}},
		Filters: []query.Filter{{
			Col: query.ColRef{Table: "t0", Column: "k"}, Op: catalog.OpLe, Value: 90,
		}},
	}
	if err := blk.Validate(cat); err != nil {
		t.Fatal(err)
	}
	eng := engine.New(store)

	const optMem = 20
	withIx, err := optimizer.LSC(cat, blk, optimizer.Options{}, optMem)
	if err != nil {
		t.Fatal(err)
	}
	heapOnly, err := optimizer.LSC(heapCat, blk, optimizer.Options{}, optMem)
	if err != nil {
		t.Fatal(err)
	}
	if !hasIndexScan(withIx.Plan) {
		t.Fatalf("the selective filter should make the clustered index win:\n%s", withIx.Plan)
	}
	if hasIndexScan(heapOnly.Plan) {
		t.Fatalf("an index-free catalog gave an index scan:\n%s", heapOnly.Plan)
	}

	execIO := func(p *plan.Node, mem float64) int64 {
		t.Helper()
		res, err := eng.ExecutePlan(p, []float64{mem})
		if err != nil {
			t.Fatalf("execute at mem %v: %v\n%s", mem, err, p)
		}
		store.Drop(res.Output.Name)
		return res.Stats.IO()
	}
	ranksChecked := 0
	for _, mem := range []float64{4, 7, 12, 20, 40} {
		modelIx, err := optimizer.ExpectedCostModel(cost.ModelPaper, withIx.Plan, []dist.Dist{dist.Point(mem)})
		if err != nil {
			t.Fatal(err)
		}
		modelHeap, err := optimizer.ExpectedCostModel(cost.ModelPaper, heapOnly.Plan, []dist.Dist{dist.Point(mem)})
		if err != nil {
			t.Fatal(err)
		}
		measIx := execIO(withIx.Plan, mem)
		measHeap := execIO(heapOnly.Plan, mem)
		t.Logf("mem=%v: index plan model=%.0f measured=%d | heap plan model=%.0f measured=%d",
			mem, modelIx, measIx, modelHeap, measHeap)
		// Rank agreement where the model sees a decisive gap (>10%); inside
		// the gap the two plans are analytic ties and either order is fine.
		switch {
		case modelIx < 0.9*modelHeap:
			ranksChecked++
			if measIx >= measHeap {
				t.Errorf("mem=%v: model ranks index plan cheaper (%.0f < %.0f) but execution disagrees (%d >= %d)",
					mem, modelIx, modelHeap, measIx, measHeap)
			}
		case modelHeap < 0.9*modelIx:
			ranksChecked++
			if measHeap >= measIx {
				t.Errorf("mem=%v: model ranks heap plan cheaper (%.0f < %.0f) but execution disagrees (%d >= %d)",
					mem, modelHeap, modelIx, measHeap, measIx)
			}
		}
	}
	if ranksChecked == 0 {
		t.Fatal("no memory level produced a decisive analytic gap; the rank check never ran")
	}
}

package fleet

import (
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// smallSpec is a fast fleet for tests: few tenants, few groups, short
// streams, but every mechanism (Zipf traffic, shared-catalog drift,
// churn tenants, budgets, breakers, hedging) still engaged.
func smallSpec(t *testing.T) Spec {
	t.Helper()
	spec, err := DefaultSpec()
	if err != nil {
		t.Fatalf("DefaultSpec: %v", err)
	}
	spec.Tenants = 48
	spec.Groups = 3
	spec.TablesPerGroup = 4
	spec.QueriesPerGroup = 4
	spec.MinPages, spec.MaxPages = 6, 20
	spec.ChurnTenants = 2
	spec.LoadLevels = []float64{500, 5000}
	return spec
}

func newTestFleet(t *testing.T, spec Spec, seed int64) *fleet {
	t.Helper()
	f, err := newFleet(spec, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("newFleet: %v", err)
	}
	return f
}

func TestNewFleetShape(t *testing.T) {
	spec := smallSpec(t)
	f := newTestFleet(t, spec, 7)

	if len(f.Tenants) != spec.Tenants {
		t.Fatalf("tenants: %d", len(f.Tenants))
	}
	if len(f.Groups) != spec.Groups {
		t.Fatalf("groups: %d", len(f.Groups))
	}
	if len(f.Queries) != spec.Groups*spec.QueriesPerGroup {
		t.Fatalf("queries: %d", len(f.Queries))
	}
	// Churn tenants are the reserved low IDs, homed in group 0, which is
	// the churn group.
	if !f.Groups[0].Churn {
		t.Fatal("group 0 should be the churn group")
	}
	for i := 0; i < spec.ChurnTenants; i++ {
		if f.Tenants[i].Group != 0 {
			t.Fatalf("churn tenant %d homed in group %d", i, f.Tenants[i].Group)
		}
	}
	for i := spec.ChurnTenants; i < len(f.Tenants); i++ {
		if f.Tenants[i].Group == 0 {
			t.Fatalf("regular tenant %d homed in churn group", i)
		}
	}
	// Query IDs are fleet-global and dense; every query stays inside its
	// group's table pool.
	for i, q := range f.Queries {
		if q.ID != i {
			t.Fatalf("query %d has ID %d", i, q.ID)
		}
		grp := f.Groups[q.Group]
		for _, tbl := range q.Block.Tables {
			if _, err := grp.Cat.Table(tbl); err != nil {
				t.Fatalf("query %d references %s outside group %d: %v", i, tbl, q.Group, err)
			}
		}
	}
}

func TestNewFleetValidates(t *testing.T) {
	bad := []func(*Spec){
		func(s *Spec) { s.Tenants = 0 },
		func(s *Spec) { s.TenantZipfS = -1 },
		func(s *Spec) { s.Groups = 1 }, // churn tenants need a regular group too
		func(s *Spec) { s.QueriesPerGroup = 0 },
		func(s *Spec) { s.MaxTables = s.TablesPerGroup + 1 },
		func(s *Spec) { s.LoadLevels = nil },
		func(s *Spec) { s.LoadLevels = []float64{0} },
		func(s *Spec) { s.Archetypes = nil },
		func(s *Spec) { s.Drift.Factors = []float64{2, 4} }, // no neutral 1
		func(s *Spec) { s.MaxPages = s.MinPages - 1 },
		func(s *Spec) { s.Shapes = nil },
		func(s *Spec) { s.MinFilterSel, s.MaxFilterSel = 0, 0.5 },
		func(s *Spec) { s.MaxFilterSel = 1.5 },
		func(s *Spec) { s.IndexFanout = 1 },
		func(s *Spec) { s.ChurnDrift.Factors = []float64{0, 1, 4} },
	}
	for i, mutate := range bad {
		spec := smallSpec(t)
		mutate(&spec)
		if _, err := newFleet(spec, rand.New(rand.NewSource(1))); !errors.Is(err, ErrBadFleet) {
			t.Errorf("case %d: want ErrBadFleet, got %v", i, err)
		}
	}
}

// TestRunDeterminism is the determinism satellite: same seed + spec give
// a byte-identical report across two independent runs and across worker
// counts.
func TestRunDeterminism(t *testing.T) {
	spec := smallSpec(t)
	run := func(workers int) []byte {
		f := newTestFleet(t, spec, 42)
		rep, err := f.run(RunConfig{Requests: 300, Seed: 99, Workers: workers})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		buf, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return buf
	}
	a, b, c := run(1), run(1), run(8)
	if string(a) != string(b) {
		t.Fatal("same seed, same workers: reports differ")
	}
	if string(a) != string(c) {
		t.Fatal("reports differ across worker counts")
	}
}

// TestRunReportShape checks each level's counters reconcile. The run
// itself fails unless the per-tenant requests sum to the wrapper's total
// and that total to the level's requests (LevelReport.finish).
func TestRunReportShape(t *testing.T) {
	spec := smallSpec(t)
	f := newTestFleet(t, spec, 42)
	rep, err := f.run(RunConfig{Requests: 300, Seed: 99})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d errors", rep.Errors)
	}
	if len(rep.Levels) != len(spec.LoadLevels) {
		t.Fatalf("levels: %d", len(rep.Levels))
	}
	for i, lvl := range rep.Levels {
		if lvl.QPS != spec.LoadLevels[i] {
			t.Fatalf("level %d qps %v", i, lvl.QPS)
		}
		if lvl.Requests != 300 {
			t.Fatalf("level %d requests %d", i, lvl.Requests)
		}
		// Every request settles to exactly one decision.
		decided := 0
		for _, dc := range lvl.Decisions {
			decided += dc.Count
		}
		if decided != lvl.Requests {
			t.Fatalf("level %d decisions sum to %d, want %d requests", i, decided, lvl.Requests)
		}
		// Hedge accounting identity.
		if lvl.HedgeWins+lvl.HedgeLosses+lvl.HedgeCancels != lvl.HedgesFired {
			t.Fatalf("level %d hedge identity: %+v", i, lvl)
		}
		if lvl.OptimizeLatency.Count != lvl.Requests-lvl.Errors {
			t.Fatalf("level %d histogram count %d", i, lvl.OptimizeLatency.Count)
		}
		if len(lvl.ChurnTenantStats) == 0 {
			t.Fatalf("level %d has no churn tenant stats", i)
		}
		if lvl.LSCIO <= 0 || lvl.LECIO <= 0 {
			t.Fatalf("level %d missing realized IO: lsc=%d lec=%d", i, lvl.LSCIO, lvl.LECIO)
		}
	}
	// Identical streams across levels: realized baseline I/O must match
	// level to level (only pacing differs).
	if rep.Levels[0].LSCIO != rep.Levels[1].LSCIO {
		t.Fatalf("baseline IO differs across levels: %d vs %d",
			rep.Levels[0].LSCIO, rep.Levels[1].LSCIO)
	}
	if rep.RealizedRatio <= 0 || rep.RealizedRatio > 1.5 {
		t.Fatalf("implausible realized ratio %v", rep.RealizedRatio)
	}
	// Higher offered load must not reduce pressure: the high level sees
	// at least as many budget denials as the low level.
	low, high := rep.Levels[0], rep.Levels[1]
	if high.BudgetDenials < low.BudgetDenials {
		t.Fatalf("denials fell with load: %d -> %d", low.BudgetDenials, high.BudgetDenials)
	}
}

func TestSummarize(t *testing.T) {
	var desc []float64 // 100..1: the summary must not depend on order
	for i := 100; i >= 1; i-- {
		desc = append(desc, float64(i))
	}
	for _, tc := range []struct {
		name string
		vals []float64
		want LatencySummary
	}{
		{"empty", nil, LatencySummary{}},
		{"quantiles_and_buckets", desc, LatencySummary{
			Count: 100, Mean: 50.5, P50: 50, P90: 90, P99: 99, Max: 100,
			Buckets: []Bucket{{1, 1}, {2, 1}, {4, 2}, {8, 4}, {16, 8}, {32, 16}, {64, 32}, {128, 36}},
		}},
		{"negative_clamped", []float64{-5}, LatencySummary{Count: 1, Buckets: []Bucket{{1, 1}}}},
		{"deterministic", []float64{7, 2, 3, 7, 1}, summarize([]float64{3, 1, 7, 7, 2})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := summarize(tc.vals); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("got %+v, want %+v", got, tc.want)
			}
		})
	}
}

package serving

import (
	"testing"

	"lecopt/internal/cost"
	"lecopt/internal/plan"
)

func TestMemBand(t *testing.T) {
	cases := []struct {
		mem  float64
		want string
	}{
		{3, "<8"}, {5, "<8"}, {7.9, "<8"},
		{8, "8-15"}, {9, "8-15"}, {15, "8-15"},
		{16, "16-31"}, {17, "16-31"}, {31, "16-31"},
		{32, "32+"}, {40, "32+"}, {4000, "32+"},
	}
	for _, c := range cases {
		if got := memBand(c.mem); got != c.want {
			t.Errorf("memBand(%v) = %q, want %q", c.mem, got, c.want)
		}
	}
	// The default tenant memory levels must land in distinct bands — the
	// ledger's resolution matches the mix's memory regimes.
	seen := map[string]bool{}
	for _, lvl := range []float64{5, 9, 17, 40} {
		b := memBand(lvl)
		if seen[b] {
			t.Fatalf("default levels collide in band %q", b)
		}
		seen[b] = true
	}
}

func TestPhaseOperatorLabels(t *testing.T) {
	// scan(A) ⋈GH scan(B, filtered) ⋈SM scan(C) with a root sort:
	// phase 0 carries the materialized B scan and the 2-way GH join,
	// phase 1 the 3-way SM join plus the sort enforcer.
	filtered := plan.NewScan("B", plan.AccessHeap, "", 0.5, 10)
	filtered.Pred = &plan.ScanPred{Column: "k", Lo: 0, Hi: 10, HasLo: true, HasHi: true}
	p := plan.NewSort(
		plan.NewJoin(cost.SortMerge,
			plan.NewJoin(cost.GraceHash,
				plan.NewScan("A", plan.AccessHeap, "", 1, 10),
				filtered,
				15, plan.Order{}),
			plan.NewScan("C", plan.AccessHeap, "", 1, 30),
			20, plan.Order{}),
		plan.Order{Column: "k"})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	got := phaseOperatorLabels(p)
	want := []string{"scan+grace-hash", "sort-merge+sort"}
	if len(got) != len(want) {
		t.Fatalf("labels %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("labels %v, want %v", got, want)
		}
	}
}

func TestRankAgrees(t *testing.T) {
	cases := []struct {
		predDelta float64
		ioDelta   int64
		want      bool
	}{
		{-100, -50, true},  // both say LEC wins
		{100, 50, true},    // both say LSC wins
		{-100, 50, false},  // model says LEC, engine says LSC: inversion
		{100, -50, false},  // model says LSC, engine says LEC: inversion
		{0, 50, true},      // model ties: agrees with anything
		{-100, 0, true},    // engine ties: agrees with anything
		{1e-12, -50, true}, // sub-tolerance model delta counts as a tie
	}
	for _, c := range cases {
		if got := rankAgrees(c.predDelta, 1000, c.ioDelta); got != c.want {
			t.Errorf("rankAgrees(%v, 1000, %d) = %v, want %v", c.predDelta, c.ioDelta, got, c.want)
		}
	}
}

// TestPhaseLedgerRun is the tentpole acceptance run: the exact
// BENCH_workload configuration (default mix, 2000 requests, seed 1) must
// produce per-tenant rank agreement everywhere — in particular the
// shared-sticky chain tenant, whose realized LEC/LSC ratio sat at 1.015
// against a predicted 0.9996 before the grace-hash fixes — and a phase
// ledger whose cells are internally consistent and sum back to the
// report's realized totals.
func TestPhaseLedgerRun(t *testing.T) {
	rep, err := defaultMix(t, 1).Run(RunConfig{Requests: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Rank agreement on every tenant (the CI smoke gate, asserted at the
	// library layer too).
	if !rep.RankAgreement {
		t.Error("report-level rank agreement is false")
	}
	for _, ts := range rep.PerTenant {
		if !ts.RankAgreement {
			t.Errorf("tenant %s: rank inversion (predicted %.4f, realized %.4f)",
				ts.Name, ts.PredictedRatio, ts.Ratio)
		}
		if ts.Name == "shared-sticky" && ts.Ratio > 1 {
			t.Errorf("shared-sticky realized LEC/LSC = %.4f, want <= 1.00 (the PR's acceptance)", ts.Ratio)
		}
	}

	// Ledger completeness: realized I/O in the cells sums exactly to the
	// report's totals, per policy.
	if len(rep.PhaseLedger) == 0 {
		t.Fatal("empty phase ledger")
	}
	sums := map[string]float64{}
	for _, c := range rep.PhaseLedger {
		sums[c.Policy] += c.RealizedIO
		if c.Samples <= 0 {
			t.Errorf("cell with no samples: %+v", c)
		}
		if got := c.RealizedIO - c.AnalyticIO; got != c.Delta {
			t.Errorf("cell delta inconsistent: %+v", c)
		}
		if c.AnalyticIO > 0 && c.Ratio != c.RealizedIO/c.AnalyticIO {
			t.Errorf("cell ratio inconsistent: %+v", c)
		}
	}
	if int64(sums["lsc"]) != rep.TotalLSCIO || int64(sums["lec"]) != rep.TotalLECIO {
		t.Errorf("ledger realized sums (lsc %v, lec %v) != report totals (%d, %d)",
			sums["lsc"], sums["lec"], rep.TotalLSCIO, rep.TotalLECIO)
	}

	// The localizing regression cell. Under the salt-rotation bug the
	// engine's recursive grace-hash partitioning never split a bucket
	// (hashKey % power-of-two fan-out moved every key of a bucket to the
	// same next-level bucket), so below-√S joins recursed to the level
	// cap and fell back to block nested loop at 3-page memory: this
	// cell's realized/analytic ratio read 6.23 and single-handedly
	// flipped the shared-sticky ranking. Fixed, it sits near 2 (the
	// engine's 2L+1-pass structure vs the paper's 2L), comfortably
	// inside the documented 4x operator band.
	for _, policy := range []string{"lsc", "lec"} {
		cell := FindLedgerCell(rep.PhaseLedger, "shared-sticky", policy, 0, "scan+grace-hash", "<8")
		if cell == nil {
			t.Fatalf("localizing ledger cell (shared-sticky/%s ph0 scan+grace-hash <8) missing", policy)
		}
		if cell.Ratio >= 4 {
			t.Errorf("grace-hash low-memory attribution regressed: %+v", cell)
		}
		if cell.Ratio < 1 {
			t.Errorf("grace-hash low-memory cell implausibly cheap (attribution leak?): %+v", cell)
		}
	}

	if FindLedgerCell(rep.PhaseLedger, "no-such-tenant", "lec", 0, "scan", "<8") != nil {
		t.Error("FindLedgerCell fabricated a cell")
	}
}

// FindLedgerCell returns the first cell matching the given fields, or nil.
// Tests use it to pin specific attribution cells as regressions.
func FindLedgerCell(cells []LedgerCell, tenant, policy string, phase int, operator, band string) *LedgerCell {
	for i := range cells {
		c := &cells[i]
		if c.Tenant == tenant && c.Policy == policy && c.Phase == phase && c.Operator == operator && c.MemBand == band {
			return c
		}
	}
	return nil
}

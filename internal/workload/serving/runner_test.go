package serving

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func defaultMix(t *testing.T, seed int64) *Mix {
	t.Helper()
	spec, err := DefaultMixSpec()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMix(spec, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRunLECBeatsLSC is the acceptance check: on the default Zipf+Markov
// mix, and on an 8-query mix generated and run at another seed, the LEC
// policy's aggregate realized I/O — measured by actually executing both
// policies' plans on the page-level engine under shared sampled memory
// trajectories — must not exceed the LSC policy's.
func TestRunLECBeatsLSC(t *testing.T) {
	for _, tc := range []struct {
		queries  int // 0 keeps the default mix's 12
		seed     int64
		requests int
	}{
		{0, 1, 300},
		{8, 11, 150},
	} {
		spec, err := DefaultMixSpec()
		if err != nil {
			t.Fatal(err)
		}
		if tc.queries > 0 {
			spec.Queries = tc.queries
		}
		m, err := NewMix(spec, rand.New(rand.NewSource(tc.seed)))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Run(RunConfig{Requests: tc.requests, Seed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d queries, seed %d: realized LSC=%d LEC=%d ratio=%.4f (predicted %.4f)",
			spec.Queries, tc.seed, rep.TotalLSCIO, rep.TotalLECIO, rep.RealizedRatio, rep.PredictedRatio)
		t.Logf("wins=%d ties=%d losses=%d agree=%.2f", rep.Wins, rep.Ties, rep.Losses, rep.PlanAgreementRate)
		t.Logf("regret LEC p50/p90/p99 = %.0f/%.0f/%.0f, LSC = %.0f/%.0f/%.0f",
			rep.LECRegretP50, rep.LECRegretP90, rep.LECRegretP99,
			rep.LSCRegretP50, rep.LSCRegretP90, rep.LSCRegretP99)
		t.Logf("opt=%d plan-cache=%.2f exec-cache=%.2f",
			rep.DistinctOptimizations, rep.PlanCacheHitRate, rep.ExecCacheHitRate)
		for _, ts := range rep.PerTenant {
			t.Logf("tenant %-16s req=%3d lsc=%7d lec=%7d ratio=%.4f w/t/l=%d/%d/%d",
				ts.Name, ts.Requests, ts.LSCIO, ts.LECIO, ts.Ratio, ts.Wins, ts.Ties, ts.Losses)
		}
		if rep.TotalLSCIO <= 0 || rep.TotalLECIO > rep.TotalLSCIO {
			t.Fatalf("%d queries, seed %d: realized LEC %d, LSC %d pages; want 0 < LSC and LEC <= LSC",
				spec.Queries, tc.seed, rep.TotalLECIO, rep.TotalLSCIO)
		}
		if rep.Requests != tc.requests || rep.Wins+rep.Ties+rep.Losses != tc.requests {
			t.Fatalf("request accounting broken: %+v", rep)
		}
	}
}

// TestRunDeterministic: same mix seed + same run seed ⇒ byte-identical
// reports, regardless of GOMAXPROCS, which the two arms set.
func TestRunDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func(procs int) []byte {
		runtime.GOMAXPROCS(procs)
		rep, err := defaultMix(t, 7).Run(RunConfig{Requests: 80, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	if a, b := run(1), run(8); !bytes.Equal(a, b) {
		t.Fatalf("GOMAXPROCS changed the report:\n%s\nvs\n%s", a, b)
	}
}

// TestRunPointLawDegenerates: with a single zero-variance tenant and no
// drift, LEC and LSC coincide — every request must tie.
func TestRunPointLawDegenerates(t *testing.T) {
	spec, err := DefaultMixSpec()
	if err != nil {
		t.Fatal(err)
	}
	tenants, err := defaultTenants()
	if err != nil {
		t.Fatal(err)
	}
	spec.Tenants = tenants[:1] // "batch": Point(40)
	spec.Drift = DriftSpec{}
	m, err := NewMix(spec, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(RunConfig{Requests: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ties != 60 || rep.Wins != 0 || rep.Losses != 0 {
		t.Fatalf("point law must tie everywhere: %+v", rep)
	}
	if rep.RealizedRatio != 1 {
		t.Fatalf("ratio %v under a point law", rep.RealizedRatio)
	}
}

func TestRunConfigValidation(t *testing.T) {
	m := defaultMix(t, 1)
	if _, err := m.Run(RunConfig{Requests: 0}); !errors.Is(err, errBadRun) {
		t.Fatal("zero requests must fail")
	}
}

// TestRunExecutesIndexPlans: the default (index-enabled) mix must actually
// execute index-scan plans — the ISSUE acceptance that `Scan(..., index)`
// nodes appear in the artifact's plan dump — and a heap-only spec
// (DisableIndexes) must reproduce the historical all-heap behavior.
func TestRunExecutesIndexPlans(t *testing.T) {
	rep, err := defaultMix(t, 1).Run(RunConfig{Requests: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PlanDump) == 0 {
		t.Fatal("no plan dump collected")
	}
	indexPlans, covered := 0, 0
	for _, pc := range rep.PlanDump {
		covered += pc.Requests
		if strings.Contains(pc.Plan, "index") {
			indexPlans++
		}
	}
	if indexPlans == 0 {
		t.Fatal("default mix executed no index plans; the access-path layer is not reaching serving")
	}
	// Both policies' plans are counted per request.
	if covered != 2*rep.Requests {
		t.Fatalf("plan dump covers %d plan-requests, want %d", covered, 2*rep.Requests)
	}
	t.Logf("%d distinct plans executed, %d index-bearing", len(rep.PlanDump), indexPlans)

	spec, err := DefaultMixSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.DisableIndexes = true
	m, err := NewMix(spec, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	heapRep, err := m.Run(RunConfig{Requests: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range heapRep.PlanDump {
		if strings.Contains(pc.Plan, "index") {
			t.Fatalf("heap-only mix executed an index plan:\n%s", pc.Plan)
		}
	}
	if heapRep.TotalLECIO > heapRep.TotalLSCIO {
		t.Fatalf("heap-only mix: LEC realized more I/O than LSC: %d > %d", heapRep.TotalLECIO, heapRep.TotalLSCIO)
	}
}

// TestRunZeroGraceFallbacks: neither the default nor the heap-only mix
// may drive any grace-hash execution into the level-cap block-NL
// fallback — the key distributions are benign, so a nonzero count means
// the engine's recursion (or the shared fan-out arithmetic in
// internal/cost) regressed. This also keeps cost.ModelEngine honest:
// the model charges the no-fallback recursion, and these mixes are the
// runs it is charged against.
func TestRunZeroGraceFallbacks(t *testing.T) {
	rep, err := defaultMix(t, 1).Run(RunConfig{Requests: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.GraceFallbacks != 0 || rep.GraceFallbackIO != 0 {
		t.Fatalf("default mix degenerated: %d grace fallbacks, %d pages of fallback I/O",
			rep.GraceFallbacks, rep.GraceFallbackIO)
	}

	spec, err := DefaultMixSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.DisableIndexes = true
	m, err := NewMix(spec, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	heapRep, err := m.Run(RunConfig{Requests: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if heapRep.GraceFallbacks != 0 || heapRep.GraceFallbackIO != 0 {
		t.Fatalf("heap-only mix degenerated: %d grace fallbacks, %d pages of fallback I/O",
			heapRep.GraceFallbacks, heapRep.GraceFallbackIO)
	}
}

package serving

import (
	"math"
	"math/rand"
	"testing"

	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/optimizer"
)

// TestPointLawPhaseECExactness pins the *exact-operator family*: the plan
// shapes where the engine realizes the analytic formula to the page, so
// the optimizer's per-phase charge under a Point law must equal the
// executed PhaseIO as integers, not merely within a band. The family is
// 2-table heap plans (no filters, no sorts, exact undrifted statistics)
// whose single phase runs either
//
//   - page nested loop, in both regimes: the resident-inner regime pays
//     outer + inner, the rescan regime pays outer + outer·inner, and the
//     engine's pinned-build pageNLJoin reads exactly those pages; or
//   - grace hash in its one-pass regime (mem >= min(outer, inner) + 2):
//     the model charges outer + inner and the engine degenerates to an
//     in-memory build+probe that reads each side once.
//
// Multi-pass grace hash and sort-merge are deliberately outside the
// family — the engine's 2L+1-pass recursion vs the paper's 2L passes and
// partial-page runs make them band-exact (TestEngineModelConditionalAgreement),
// not page-exact. Any drift here is a mispriced formula or an engine
// operator touching pages the model doesn't know about, with zero
// estimation or law error to hide behind.
func TestPointLawPhaseECExactness(t *testing.T) {
	spec, err := DefaultMixSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Queries = 8
	spec.MinTables, spec.MaxTables = 2, 2
	spec.FilterProb = 0
	spec.OrderByProb = 0
	spec.DisableIndexes = true
	spec.Drift = DriftSpec{} // exact statistics: estimated sizes are realized sizes
	rng := rand.New(rand.NewSource(7))
	m, err := NewMix(spec, rng)
	if err != nil {
		t.Fatal(err)
	}

	methodSets := [][]cost.JoinMethod{
		{cost.PageNL},
		{cost.GraceHash},
	}
	levels := []float64{4, 6, 9, 14, 20, 40, 80}
	checked := 0
	for _, q := range m.Queries {
		for _, methods := range methodSets {
			for _, mem := range levels {
				// spec.DisableIndexes keeps the catalog heap-only, so the
				// optimizer has no index paths to consider.
				res, err := optimizer.AlgorithmC(q.Cat, q.Block,
					optimizer.Options{Methods: methods}, dist.Point(mem))
				if err != nil {
					t.Fatal(err)
				}
				join := res.Plan
				if join.Method == cost.GraceHash {
					small := math.Min(join.Left.OutPages, join.Right.OutPages)
					if mem < small+2 {
						continue // multi-pass grace hash: band-exact only
					}
				}
				exec, err := q.Eng.ExecutePlan(res.Plan, []float64{mem})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.PhaseEC) != 1 || len(exec.PhaseIO) != 1 {
					t.Fatalf("2-table plan %s: phase counts analytic %d, realized %d, want 1",
						res.Plan, len(res.PhaseEC), len(exec.PhaseIO))
				}
				if res.PhaseEC[0] != float64(exec.PhaseIO[0]) {
					t.Errorf("plan %s at mem %v: analytic phase charge %v != realized %d pages",
						res.Plan, mem, res.PhaseEC[0], exec.PhaseIO[0])
				}
				checked++
			}
		}
	}
	// The one-pass cutoff prunes some grace-hash levels; make sure the
	// family is still densely sampled, including both nested-loop regimes.
	if checked < 60 {
		t.Fatalf("only %d exact-family executions checked, want >= 60", checked)
	}
}

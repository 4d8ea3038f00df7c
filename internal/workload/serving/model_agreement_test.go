package serving

import (
	"math/rand"
	"strings"
	"testing"

	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/feedback"
	"lecopt/internal/optimizer"
	"lecopt/internal/plan"
)

// Engine-vs-model agreement bounds. The analytic cost model is the paper's
// simplified three-case formulas (footnote 2, [Sha86]); the engine runs
// real external sorts, Grace hash and nested-loop joins through an LRU
// buffer pool. E15/E17 established they share threshold *shape*; this
// property pins a quantitative band: over a seeded corpus of random
// left-deep plans and random per-phase memory trajectories, the measured
// total I/O must stay within [1/band, band] of C(P, v).
//
// Two bands, measured over an 800-trial sweep of this corpus's generator:
//
//   - Sort-merge/grace-hash plans: band 3.5 (worst observed 3.04). Their
//     cost is linear in the input sizes, so intermediate-size estimation
//     error passes through undamped but unamplified.
//   - Plans containing a nested-loop join: band 16 (worst observed 11.5).
//     PageNL's expensive case charges outer·inner — the rescan *product*
//     multiplies any error in the estimated intermediate size, so a 3x
//     size misestimate becomes a ~10x cost misestimate. This is the
//     analytic-vs-realized gap the serving runner exists to measure.
//
// Both are intentionally loose — the model counts idealized passes, the
// engine pays partial pages, recursive partitioning and LRU eviction noise
// — but they are *bounds*, and regressions in either layer (a mispriced
// formula, an engine join reading inputs twice) break them.
const (
	modelAgreementBand = 3.5
	// modelAgreementBandNL is the nested-loop band on the *undrifted*
	// corpus (TestEngineModelAgreement optimizes against exact statistics).
	// Historically 16 (worst observed 11.5): the engine's pageNLJoin only
	// realized the formula's cheap case for a resident inner, so a small
	// outer with M ∈ [outer+2, inner+2) paid a rescan product the model
	// never charged. The residency fix (pin the smaller side) removed
	// that whole failure mode; what remains is ordinary size-estimation
	// noise through the rescan product.
	modelAgreementBandNL = 4
	// modelAgreementBandIX is the band for index-scan-bearing plans (no
	// nested loop): engine root-to-leaf walk + leaf run + fetches vs
	// cost.IndexScanIO.
	modelAgreementBandIX = 4
	// modelAgreementBandNLFeedback is the nested-loop band on the
	// *drifted* corpus with executed-size feedback closed through the
	// Optimizer handle: observed intermediate sizes remove the
	// size-estimation error that PageNL's outer·inner product squares.
	// With the residency fix landed the feedback fixpoint tightens from
	// the historical 8 to <= 4 (ISSUE acceptance).
	modelAgreementBandNLFeedback = 4
	// driftedAgreementBandNL bounds the drifted corpus *without* feedback:
	// the ±2x statistics drift enters the rescan product squared, so this
	// band is inherently wide (observed 9.99) — but the residency fix
	// still tightened its historical 16x bound.
	driftedAgreementBandNL = 12
)

// TestEngineModelAgreement is the ISSUE's property test: for a corpus of
// seeded random left-deep plans, executed realized PhaseIO agrees with the
// analytic prediction within the documented band, phase accounting is
// complete (PhaseIO sums to total I/O), and the worst offender is printed
// with its plan and memory sequence on failure.
func TestEngineModelAgreement(t *testing.T) {
	spec, err := DefaultMixSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Queries = 10
	spec.OrderByProb = 0.5
	rng := rand.New(rand.NewSource(42))
	m, err := NewMix(spec, rng)
	if err != nil {
		t.Fatal(err)
	}

	methodSets := [][]cost.JoinMethod{
		nil, // optimizer default: sort-merge, grace hash, page nested-loop
		{cost.SortMerge},
		{cost.GraceHash},
		{cost.SortMerge, cost.GraceHash},
		{cost.PageNL, cost.BlockNL},
	}
	levels := []float64{4, 6, 9, 14, 20, 40, 80}

	type offender struct {
		ratio  float64
		plan   string
		memSeq []float64
	}
	worst := offender{ratio: 1}
	checked, checkedIX := 0, 0
	for trial := 0; trial < 60; trial++ {
		q := m.Queries[trial%len(m.Queries)]
		opts := optimizer.Options{
			Methods: methodSets[trial%len(methodSets)],
		}
		// A random optimization memory decouples the plan's choice point
		// from the executed trajectory: plans get executed far from where
		// they were optimized, exactly like a serving mix under drift.
		optMem := levels[rng.Intn(len(levels))]
		res, err := optimizer.LSC(q.Cat, q.Block, opts, optMem)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		memSeq := make([]float64, q.Phases)
		for i := range memSeq {
			memSeq[i] = levels[rng.Intn(len(levels))]
		}
		model, err := optimizer.ExpectedCostModel(cost.ModelPaper, res.Plan, dist.Points(memSeq))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		exec, err := q.Eng.ExecutePlan(res.Plan, memSeq)
		if err != nil {
			t.Fatalf("trial %d: execute: %v\nplan:\n%s", trial, err, res.Plan)
		}
		q.Store.Drop(exec.Output.Name)

		if len(exec.PhaseIO) != q.Phases {
			t.Fatalf("trial %d: %d phase slots for %d phases", trial, len(exec.PhaseIO), q.Phases)
		}
		var phaseSum int64
		for _, io := range exec.PhaseIO {
			if io < 0 {
				t.Fatalf("trial %d: negative phase I/O %v", trial, exec.PhaseIO)
			}
			phaseSum += io
		}
		if phaseSum != exec.Stats.IO() {
			t.Fatalf("trial %d: PhaseIO sums to %d, total I/O %d — phase accounting leaks",
				trial, phaseSum, exec.Stats.IO())
		}

		measured := float64(exec.Stats.IO())
		if measured <= 0 || model <= 0 {
			t.Fatalf("trial %d: non-positive cost (measured %v, model %v)", trial, measured, model)
		}
		ratio := measured / model
		checked++
		if ratio > worst.ratio || 1/ratio > worst.ratio {
			r := ratio
			if 1/ratio > r {
				r = 1 / ratio
			}
			worst = offender{ratio: r, plan: res.Plan.String(), memSeq: memSeq}
		}
		band := float64(modelAgreementBand)
		switch {
		case hasNestedLoopJoin(res.Plan):
			band = modelAgreementBandNL
		case hasIndexScan(res.Plan):
			band = modelAgreementBandIX
			checkedIX++
		}
		if ratio > band || ratio < 1/band {
			t.Errorf("trial %d: measured/model ratio %.3f outside [%.3f, %.1f]\nmemSeq: %v\nplan:\n%s",
				trial, ratio, 1/band, band, memSeq, res.Plan)
		}
	}
	t.Logf("%d plans checked (%d index-bearing); worst symmetric ratio %.3f\nworst plan (memSeq %v):\n%s",
		checked, checkedIX, worst.ratio, worst.memSeq, worst.plan)
	if checked == 0 {
		t.Fatal("corpus empty")
	}
	if checkedIX == 0 {
		t.Fatal("corpus produced no index-scan plans; the index band is untested")
	}
}

// TestEngineModelAgreementFeedback closes the result-size feedback loop
// (ISSUE acceptance): running the same corpus generator with executed
// intermediate sizes Observed back through the Optimizer handle must
// tighten the nested-loop measured/model band from 16x to <= 8x, without
// widening the sort-merge/grace-hash band.
func TestEngineModelAgreementFeedback(t *testing.T) {
	spec, err := DefaultMixSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Queries = 10
	spec.OrderByProb = 0.5
	m, err := NewMix(spec, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	// The sweep cycles the mix's own drift factors: the default mix's
	// {0.5, 1, 2} stale-statistics axis.
	before, err := m.MeasureModelAgreement(7, false)
	if err != nil {
		t.Fatal(err)
	}
	after, err := m.MeasureModelAgreement(7, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("bands without feedback: SM/GH %.3f (%d plans), NL %.3f (%d plans), IX %.3f (%d plans)",
		before.BandSMGH, before.PlansSMGH, before.BandNL, before.PlansNL, before.BandIX, before.PlansIX)
	t.Logf("bands with    feedback: SM/GH %.3f (%d plans), NL %.3f (%d plans), IX %.3f (%d plans), %d observations",
		after.BandSMGH, after.PlansSMGH, after.BandNL, after.PlansNL, after.BandIX, after.PlansIX,
		after.FeedbackObservations)
	if before.PlansNL == 0 || after.PlansNL == 0 {
		t.Fatal("corpus produced no nested-loop plans; the NL band is untested")
	}
	if before.PlansIX == 0 || after.PlansIX == 0 {
		t.Fatal("corpus produced no index-scan plans; the index band is untested")
	}
	if before.BandSMGH > modelAgreementBand {
		t.Fatalf("no-feedback SM/GH band regressed: %.3f (limit %v)", before.BandSMGH, modelAgreementBand)
	}
	// The drifted no-feedback NL band is dominated by size-estimation
	// error (the rescan product squares the drift), which only feedback
	// removes; the residency fix still halved its historical 16x bound.
	if before.BandNL > driftedAgreementBandNL {
		t.Fatalf("no-feedback drifted NL band regressed: %.3f (limit %v)", before.BandNL, float64(driftedAgreementBandNL))
	}
	if after.FeedbackObservations == 0 {
		t.Fatal("feedback sweep folded no observations")
	}
	if after.BandNL > modelAgreementBandNLFeedback {
		t.Fatalf("feedback NL band %.3f exceeds %v — the result-size loop is not tightening the model",
			after.BandNL, float64(modelAgreementBandNLFeedback))
	}
	if after.BandSMGH > modelAgreementBand {
		t.Fatalf("feedback widened the SM/GH band: %.3f > %v", after.BandSMGH, modelAgreementBand)
	}
	// Index-scan pricing carries no intermediate-size dependence, so its
	// band must hold with and without feedback.
	if before.BandIX > modelAgreementBandIX || after.BandIX > modelAgreementBandIX {
		t.Fatalf("index band out of bounds: %.3f / %.3f (limit %v)",
			before.BandIX, after.BandIX, float64(modelAgreementBandIX))
	}
}

// Conditional per-phase agreement bands: realized PhaseIO[i] over the
// analytic charge ExpectedCostPhasesModel(servingCostModel, Points(PhaseMem))[i] — the
// serving-path model conditioned on the memory the executor actually saw,
// phase by phase. Conditioning removes the law/trajectory error that the
// unconditional bands absorb, so these are strictly tighter than the 4x
// whole-plan bands above (measured over the 120-trial corpus in
// TestEngineModelConditionalAgreement):
//
//   - nested-loop phases: 2.0 (observed [0.90, 1.11]) — with exact
//     statistics and realized memory, PageNL's two cases are nearly
//     exact; what remains is partial-page and pin noise. (Identical under
//     both cost models.)
//   - sort-merge phases: 2.5 (observed [0.98, 2.17]) — the engine pays
//     run writes plus a merge read (~3 passes) where the paper's
//     simplified structure charges 2, and partial run pages ride on top.
//     (Identical under both cost models; see DESIGN.md's external-sort
//     audit.)
//   - grace-hash phases: 1.5 — cost.ModelEngine replays the engine's
//     actual fan-out recursion (in-memory +2 boundary, capped fan-out,
//     ceil'd partition tail pages), so the paper model's 2L-vs-2L+1 pass
//     drift and its sub-1 in-memory edge (historical band 3.25, observed
//     [0.50, 2.81]) are gone; what remains is buffer-residency noise.
const (
	condBandNL = 2.0
	condBandSM = 2.5
	condBandGH = 1.5
)

// TestEngineModelConditionalAgreement is the phase-ledger property test:
// for every phase of every corpus plan, the engine's realized phase I/O
// stays within the documented per-operator band of the analytic charge at
// the phase's realized memory — and phases the model prices at zero
// realize exactly zero I/O (the attribution conventions match end to
// end). This is the per-cell guarantee that makes ledger deltas
// attributable to formula error rather than bookkeeping drift.
func TestEngineModelConditionalAgreement(t *testing.T) {
	spec, err := DefaultMixSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Queries = 10
	spec.OrderByProb = 0.5
	rng := rand.New(rand.NewSource(42))
	m, err := NewMix(spec, rng)
	if err != nil {
		t.Fatal(err)
	}
	methodSets := [][]cost.JoinMethod{
		nil,
		{cost.SortMerge},
		{cost.GraceHash},
		{cost.SortMerge, cost.GraceHash},
		{cost.PageNL, cost.BlockNL},
	}
	levels := []float64{4, 6, 9, 14, 20, 40, 80}
	checked := 0
	for trial := 0; trial < 120; trial++ {
		q := m.Queries[trial%len(m.Queries)]
		opts := optimizer.Options{Methods: methodSets[trial%len(methodSets)]}
		optMem := levels[rng.Intn(len(levels))]
		res, err := optimizer.LSC(q.Cat, q.Block, opts, optMem)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		memSeq := make([]float64, q.Phases)
		for i := range memSeq {
			memSeq[i] = levels[rng.Intn(len(levels))]
		}
		exec, err := q.Eng.ExecutePlan(res.Plan, memSeq)
		if err != nil {
			t.Fatalf("trial %d: execute: %v\nplan:\n%s", trial, err, res.Plan)
		}
		q.Store.Drop(exec.Output.Name)
		// Condition on the realized memory trajectory AND the realized
		// intermediate sizes: the band then measures pure formula error.
		// The size-estimation axis is measured separately, by the
		// unconditional bands above and the feedback sweep.
		cond := sizeConditioned(res.Plan, exec.JoinSizes)
		condEC, err := optimizer.ExpectedCostPhasesModel(servingCostModel, cond, dist.Points(exec.PhaseMem))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(condEC) != len(exec.PhaseIO) || len(exec.PhaseMem) != len(exec.PhaseIO) {
			t.Fatalf("trial %d: phase-count contract broken: %d analytic, %d realized, %d mem entries",
				trial, len(condEC), len(exec.PhaseIO), len(exec.PhaseMem))
		}
		labels := phaseOperatorLabels(res.Plan)
		for i := range condEC {
			realized, analytic := float64(exec.PhaseIO[i]), condEC[i]
			if analytic == 0 {
				if realized != 0 {
					t.Errorf("trial %d phase %d (%s): model charges 0, engine paid %v\nplan:\n%s",
						trial, i, labels[i], realized, res.Plan)
				}
				continue
			}
			band := condBandSM
			switch {
			case strings.Contains(labels[i], "page-nl") || strings.Contains(labels[i], "block-nl"):
				band = condBandNL
			case strings.Contains(labels[i], "grace-hash"):
				band = condBandGH
			}
			ratio := realized / analytic
			checked++
			if ratio > band || ratio < 1/band {
				t.Errorf("trial %d phase %d (%s, mem %.0f): realized/analytic %.3f outside [%.3f, %.2f]\nplan:\n%s",
					trial, i, labels[i], exec.PhaseMem[i], ratio, 1/band, band, res.Plan)
			}
		}
	}
	if checked < 100 {
		t.Fatalf("corpus too thin: %d priced phases checked", checked)
	}
	t.Logf("%d priced phases checked against conditional per-operator bands", checked)
}

// sizeConditioned returns a copy of p with every node's OutPages replaced
// by the executed observed page count of its table set, when one was
// observed (engine.ExecResult.JoinSizes, keyed by feedback.SetKey — the
// same vocabulary the result-size feedback loop uses).
func sizeConditioned(p *plan.Node, sizes map[string]float64) *plan.Node {
	if p == nil {
		return nil
	}
	c := *p
	c.Left = sizeConditioned(p.Left, sizes)
	c.Right = sizeConditioned(p.Right, sizes)
	c.Child = sizeConditioned(p.Child, sizes)
	if obs, ok := sizes[feedback.SetKey(c.Relations()...)]; ok && obs > 0 {
		c.OutPages = obs
	}
	return &c
}

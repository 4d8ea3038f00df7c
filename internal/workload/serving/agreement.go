package serving

import (
	"fmt"
	"math"
	"math/rand"

	"lecopt/internal/catalog"
	"lecopt/internal/core"
	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/envsim"
	"lecopt/internal/optimizer"
	"lecopt/internal/plan"
)

// AgreementReport pins the measured/model agreement of one sweep. Bands
// are worst-case symmetric ratios max(measured/model, model/measured):
// the quantitative gap between the paper's three-case cost formulas and
// the page-level engine. Nested-loop-bearing plans get their own band
// because PageNL's expensive case charges outer·inner — the rescan
// product squares any intermediate-size estimation error, which is
// exactly what executed-size feedback removes. Index-scan-bearing plans
// (without nested loops) get a third band: their access cost is priced by
// cost.IndexScanIO against the engine's real root-to-leaf walk.
type AgreementReport struct {
	Trials   int  `json:"trials"`
	Feedback bool `json:"feedback"`

	// BandSMGH covers heap-scan plans using only sort-merge and
	// grace-hash joins (cost linear in input sizes); BandNL covers plans
	// containing a nested-loop join (classified first: the rescan product
	// dominates any access-path discrepancy); BandIX covers the remaining
	// plans containing an index scan.
	BandSMGH float64 `json:"band_smgh"`
	BandNL   float64 `json:"band_nl"`
	BandIX   float64 `json:"band_ix"`

	// MeanAbsLog* is the mean |ln(measured/model)| per class — the
	// average miscalibration, which executed-size feedback shrinks even
	// when the worst-case band is pinned by a non-size discrepancy.
	MeanAbsLogSMGH float64 `json:"mean_abs_log_smgh"`
	MeanAbsLogNL   float64 `json:"mean_abs_log_nl"`
	MeanAbsLogIX   float64 `json:"mean_abs_log_ix"`

	PlansSMGH int `json:"plans_smgh"`
	PlansNL   int `json:"plans_nl"`
	PlansIX   int `json:"plans_ix"`

	// FeedbackObservations counts the folded size observations (0 when
	// feedback is off).
	FeedbackObservations uint64 `json:"feedback_observations"`
}

// agreementMethodSets mirrors the model-agreement property test's corpus:
// the optimizer default plus restricted subsets that force each join
// family to appear.
func agreementMethodSets() [][]cost.JoinMethod {
	return [][]cost.JoinMethod{
		nil, // optimizer default: sort-merge, grace hash, page nested-loop
		{cost.SortMerge},
		{cost.GraceHash},
		{cost.SortMerge, cost.GraceHash},
		{cost.PageNL, cost.BlockNL},
	}
}

// agreementTrials is the size of the agreement sweep's plan corpus.
const agreementTrials = 60

// MeasureModelAgreement sweeps a corpus of agreementTrials seeded random
// plans (mixed join-method subsets, random optimization memory, random
// executed trajectories) over the mix's queries, compares each plan's
// measured physical I/O against the analytic cost model's prediction, and
// reports the worst measured/model bands. seed drives all sweep
// randomness. Statistics drift cycles through the trials: trial i
// optimizes against the catalog with distinct counts scaled by the mix's
// drift factor i%len while executing the true data — the serving mix's
// stale-statistics setting, which is what inflates the nested-loop band
// (a mix without drift uses factor 1).
//
// feedback closes the executed-size loop between executions: each trial
// executes its plan, Observes the materialized intermediate sizes into
// the handle, and re-optimizes until the choice is stable (at most four
// rounds — observations are deterministic, so a plan whose own prefixes
// have been observed is a fixpoint); the band is then measured on the
// stable, hint-costed plan. Later trials of the same query reuse earlier
// observations, exactly like a serving fleet.
func (m *Mix) MeasureModelAgreement(seed int64, feedback bool) (*AgreementReport, error) {
	rng := rand.New(rand.NewSource(seed))
	opt := core.NewOptimizer(nil, core.Config{DisableFeedback: !feedback})
	methodSets := agreementMethodSets()
	levels := []float64{4, 6, 9, 14, 20, 40, 80}
	factors := m.Spec.Drift.Factors
	if len(factors) == 0 {
		factors = []float64{1}
	}
	driftCats := map[driftCatKey]*catalog.Catalog{}
	rep := &AgreementReport{Trials: agreementTrials, Feedback: feedback, BandSMGH: 1, BandNL: 1, BandIX: 1}

	for trial := 0; trial < agreementTrials; trial++ {
		q := m.Queries[trial%len(m.Queries)]
		cat, err := m.catalogAt(driftCats, q.ID, factors[trial%len(factors)])
		if err != nil {
			return nil, err
		}
		opts := planOpts()
		opts.Methods = methodSets[trial%len(methodSets)]
		// A random optimization memory decouples the plan's choice point
		// from the executed trajectory, exactly like a serving mix under
		// memory drift.
		optMem := levels[rng.Intn(len(levels))]
		memSeq := make([]float64, q.Phases)
		for i := range memSeq {
			memSeq[i] = levels[rng.Intn(len(levels))]
		}
		req := core.Request{
			Query: q.Block, Cat: cat,
			Env:  envsim.Env{Mem: dist.Point(optMem)},
			Alg:  core.AlgLSCMode,
			Opts: opts,
		}
		resp, err := opt.Optimize(req)
		if err != nil {
			return nil, fmt.Errorf("serving: agreement trial %d: %w", trial, err)
		}
		cur := resp.Plan
		exec, err := executeOnce(q, cur, memSeq)
		if err != nil {
			return nil, fmt.Errorf("serving: agreement trial %d: %w", trial, err)
		}
		if feedback {
			for iter := 0; iter < 4; iter++ {
				if err := opt.Observe(core.Feedback{Query: q.Block, Cat: cat, Sizes: exec.joinSizes}); err != nil {
					return nil, err
				}
				next, err := opt.Optimize(req)
				if err != nil {
					return nil, fmt.Errorf("serving: agreement trial %d: %w", trial, err)
				}
				if next.Plan.Signature() == cur.Signature() {
					// Same physical shape; adopt the hint-costed node
					// sizes and keep the already-measured execution
					// (execution depends on shape only).
					cur = next.Plan
					break
				}
				cur = next.Plan
				if exec, err = executeOnce(q, cur, memSeq); err != nil {
					return nil, fmt.Errorf("serving: agreement trial %d: %w", trial, err)
				}
			}
		}
		model, err := optimizer.ExpectedCostModel(servingCostModel, cur, dist.Points(memSeq))
		if err != nil {
			return nil, fmt.Errorf("serving: agreement trial %d: %w", trial, err)
		}
		measured := float64(exec.io)
		if measured <= 0 || model <= 0 {
			return nil, fmt.Errorf("serving: agreement trial %d: non-positive cost (measured %v, model %v)", trial, measured, model)
		}
		ratio := measured / model
		if 1/ratio > ratio {
			ratio = 1 / ratio
		}
		switch {
		case hasNestedLoopJoin(cur):
			rep.PlansNL++
			rep.MeanAbsLogNL += math.Log(ratio)
			if ratio > rep.BandNL {
				rep.BandNL = ratio
			}
		case hasIndexScan(cur):
			rep.PlansIX++
			rep.MeanAbsLogIX += math.Log(ratio)
			if ratio > rep.BandIX {
				rep.BandIX = ratio
			}
		default:
			rep.PlansSMGH++
			rep.MeanAbsLogSMGH += math.Log(ratio)
			if ratio > rep.BandSMGH {
				rep.BandSMGH = ratio
			}
		}
	}
	if rep.PlansNL > 0 {
		rep.MeanAbsLogNL /= float64(rep.PlansNL)
	}
	if rep.PlansIX > 0 {
		rep.MeanAbsLogIX /= float64(rep.PlansIX)
	}
	if rep.PlansSMGH > 0 {
		rep.MeanAbsLogSMGH /= float64(rep.PlansSMGH)
	}
	_, rep.FeedbackObservations = opt.FeedbackStats()
	return rep, nil
}

// hasNestedLoopJoin reports whether any join in the plan is a nested-loop
// variant.
func hasNestedLoopJoin(p *plan.Node) bool {
	found := false
	p.Walk(func(n *plan.Node) {
		if n.Kind == plan.KindJoin && (n.Method == cost.PageNL || n.Method == cost.BlockNL) {
			found = true
		}
	})
	return found
}

// hasIndexScan reports whether any leaf of the plan is an index scan.
func hasIndexScan(p *plan.Node) bool {
	found := false
	p.Walk(func(n *plan.Node) {
		if n.Kind == plan.KindScan && n.Access == plan.AccessIndex {
			found = true
		}
	})
	return found
}

package optimizer

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"lecopt/internal/catalog"
	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/expcost"
	"lecopt/internal/plan"
	"lecopt/internal/query"
)

// LSC computes the classical least-specific-cost left-deep plan for one
// fixed memory value — the System R baseline of Theorem 2.1. Current
// optimizers run this at the mean or modal memory value.
func LSC(cat *catalog.Catalog, blk *query.Block, opts Options, mem float64) (Result, error) {
	c, err := prepare(cat, blk, opts)
	if err != nil {
		return Result{}, err
	}
	defer c.release()
	s := c.pointScorer(mem)
	res, err := c.dpBest(s)
	if err != nil {
		return Result{}, err
	}
	return withPhaseEC(res, c.opts.CostModel, s.laws)
}

// AlgorithmC computes the LEC left-deep plan for a static memory law
// (Section 3.4, Theorem 3.3): the System R DP run over expected costs.
func AlgorithmC(cat *catalog.Catalog, blk *query.Block, opts Options, mem dist.Dist) (Result, error) {
	c, err := prepare(cat, blk, opts)
	if err != nil {
		return Result{}, err
	}
	defer c.release()
	laws := c.staticLaws(mem)
	res, err := c.dpBest(scorer{laws: laws, model: c.opts.CostModel})
	if err != nil {
		return Result{}, err
	}
	return withPhaseEC(res, c.opts.CostModel, laws)
}

// AlgorithmCDynamic computes the LEC left-deep plan when memory evolves
// between phases as a Markov chain (Section 3.5, Theorem 3.4): phase i is
// costed under the i-step law of the chain from the initial distribution.
func AlgorithmCDynamic(cat *catalog.Catalog, blk *query.Block, opts Options, init dist.Dist, chain *dist.Chain) (Result, error) {
	c, err := prepare(cat, blk, opts)
	if err != nil {
		return Result{}, err
	}
	defer c.release()
	laws, err := chain.PhaseLaws(init, lastPhase(c.n)+1)
	if err != nil {
		return Result{}, err
	}
	res, err := c.dpBest(scorer{laws: laws, model: c.opts.CostModel})
	if err != nil {
		return Result{}, err
	}
	return withPhaseEC(res, c.opts.CostModel, laws)
}

// bucketPoints lists the memory values Algorithms A and B probe with an LSC
// pass: every bucket of the law plus its mean. The paper notes the
// traditional expected value can be assumed to be among the candidates
// "without loss of generality"; including it makes the dominance guarantee
// versus mean-LSC hold by construction. The list lives in c until release.
func (c *ctx) bucketPoints(mem dist.Dist) []float64 {
	c.points = c.points[:0]
	for i := range mem.Len() {
		c.points = append(c.points, mem.Value(i))
	}
	c.points = append(c.points, mem.Mean())
	return c.points
}

// AlgorithmA treats a standard optimizer as a black box (Section 3.2): run
// LSC once per memory bucket, then pick the candidate with least expected
// cost under the full law. Its plan is never worse in expectation than the
// plan LSC finds at the law's mean or mode (both are bucket representatives
// or dominated by one), but it can miss the true LEC plan.
func AlgorithmA(cat *catalog.Catalog, blk *query.Block, opts Options, mem dist.Dist) (Result, error) {
	c, err := prepare(cat, blk, opts)
	if err != nil {
		return Result{}, err
	}
	defer c.release()
	laws := c.staticLaws(mem)
	// A mean that is a bucket (every Point law) would rerun that bucket's
	// pass for the same plan, which Candidates counts once anyway.
	points := c.bucketPoints(mem)
	if last := len(points) - 1; slices.Contains(points[:last], points[last]) {
		points = points[:last]
	}
	// A pass's winner is built in its scratch (tree), and copied out and
	// priced only when no earlier pass found its signature: a repeat is the
	// same plan at the same expected cost, and the first of equal
	// signatures stands for the rest. Each scratch is released as soon as
	// its pass is done.
	var buf [8]Result
	cands := buf[:0]
	for _, pt := range points {
		sc := getScratch(keepBest, 1, c.n)
		s := c.pointScorer(pt)
		e, err := c.winner(sc, s)
		if err == nil {
			if p := c.tree(sc, s, e); !slices.ContainsFunc(cands, func(r Result) bool { return compareTrees(r.Plan, p) == 0 }) {
				var r Result
				r, err = c.copyPriced(p, laws)
				cands = append(cands, r)
			}
		}
		sc.release()
		if err != nil {
			return Result{}, err
		}
	}
	best := 0
	for i := 1; i < len(cands); i++ {
		if better(cands[i].EC, cands[i].Plan, cands[best].EC, cands[best].Plan) {
			best = i
		}
	}
	res := cands[best]
	res.Candidates = len(cands)
	return res, nil
}

// copyPriced returns a deep copy of p with its phase breakdown under laws,
// and EC their sum.
func (c *ctx) copyPriced(p *plan.Node, laws []dist.Dist) (Result, error) {
	r, err := withPhaseEC(Result{Plan: p.Clone()}, c.opts.CostModel, laws)
	r.EC = sumPhases(r.PhaseEC)
	return r, err
}

// AlgorithmB generalizes Algorithm A by generating the top-c plans per
// memory bucket with a modified System R pass (Section 3.3), using the
// Proposition 3.1 frontier to combine candidate lists, then selecting the
// least-expected-cost candidate.
func AlgorithmB(cat *catalog.Catalog, blk *query.Block, opts Options, mem dist.Dist, c int) (Result, error) {
	if c < 1 {
		return Result{}, fmt.Errorf("%w: top-c requires c ≥ 1, got %d", ErrBadOpts, c)
	}
	cx, err := prepare(cat, blk, opts)
	if err != nil {
		return Result{}, err
	}
	defer cx.release()
	laws := cx.staticLaws(mem)
	// Every pass builds its top plans in its scratch (tree), and every
	// scratch is held until the winner is copied out of it, then all are
	// released together in bucket order (DESIGN.md, "No goroutines inside
	// the handle").
	points := cx.bucketPoints(mem)
	var scsBuf [32]*dpScratch
	scs := scsBuf[:0]
	defer func() {
		for _, sc := range scs {
			sc.release()
		}
	}()
	// Candidates are priced in the order the passes list them, each
	// signature once; the least expected cost so far keeps its phase
	// breakdown, which becomes the answer's PhaseEC.
	var seenBuf [96]*plan.Node
	seen := seenBuf[:0]
	var best *plan.Node
	var bestEC float64
	var ph, bestPh []float64
	probes := 0
	for _, pt := range points {
		s := cx.pointScorer(pt)
		sc := getScratch(keepTopC, c, cx.n)
		scs = append(scs, sc)
		cx.run(sc, s, math.Inf(1))
		tops := cx.topRoots(sc, s, c)
		if len(tops) == 0 {
			return Result{}, ErrNoPlan
		}
		for i := range tops {
			node := cx.tree(sc, s, &tops[i])
			if slices.ContainsFunc(seen, func(p *plan.Node) bool { return compareTrees(p, node) == 0 }) {
				continue
			}
			seen = append(seen, node)
			if ph, err = expectedPhases(ph, cx.opts.CostModel, node, laws); err != nil {
				return Result{}, err
			}
			if ec := sumPhases(ph); best == nil || better(ec, node, bestEC, best) {
				best, bestEC = node, ec
				ph, bestPh = bestPh, ph
			}
		}
		probes += sc.probes
	}
	if err := checkFinite(bestEC); err != nil {
		return Result{}, err
	}
	return Result{Plan: best.Clone(), EC: bestEC, PhaseEC: bestPh, Candidates: len(seen), Probes: probes}, nil
}

// AlgorithmD computes the LEC plan under joint uncertainty in memory,
// base-relation sizes and join selectivities (Section 3.6). Each DP node
// carries exactly the four distributions of Figure 1 — Pr(M) (global),
// Pr(|Bj|) (propagated result sizes), Pr(|Aj|) (base sizes) and Pr(σ) —
// and propagates the result-size law with Section 3.6.3 rebucketing. The
// result-size laws of every subset are built before the dynamic program
// runs, which is then the single-entry pass of the other algorithms,
// priced over those laws and bounded like them.
// selLaws maps EdgeKey(join) to a selectivity law; sizeLaws maps table
// name to a filtered-size law. Missing entries use point estimates.
func AlgorithmD(cat *catalog.Catalog, blk *query.Block, opts Options, mem dist.Dist,
	selLaws map[string]dist.Dist, sizeLaws map[string]dist.Dist) (Result, error) {
	c, err := prepare(cat, blk, opts)
	if err != nil {
		return Result{}, err
	}
	defer c.release()
	if err := c.setSelLaws(selLaws); err != nil {
		return Result{}, err
	}
	if err := c.setSizeLaws(sizeLaws); err != nil {
		return Result{}, err
	}
	res, err := c.dpLaws(mem)
	if err != nil {
		return Result{}, err
	}
	// D's PhaseEC is evaluated at the plan's annotated point sizes: the
	// joint size laws don't decompose per phase, the memory law does.
	return withPhaseEC(res, c.opts.CostModel, c.staticLaws(mem))
}

// dpLaws is Algorithm D's dynamic program: a single-entry pass over the
// size table (lawScorer), bounded like every other (best).
func (c *ctx) dpLaws(mem dist.Dist) (Result, error) {
	sc := getScratch(keepBest, 1, c.n)
	defer sc.release()
	s, err := c.lawScorer(sc, mem)
	if err != nil {
		return Result{}, err
	}
	return c.best(sc, s)
}

// lawScorer builds Algorithm D's size table in sc — the size law of every
// mask, in mask order, so that each mask's peel parent (numerically
// smaller) is ready before it — and returns D's scorer over it and the
// memory law mem.
func (c *ctx) lawScorer(sc *dpScratch, mem dist.Dist) (scorer, error) {
	full := fullMask(c.n)
	sc.laws = grow(sc.laws, int(full)+1)
	for j, ti := range c.tables {
		law := ti.sizeLaw
		if law.IsZero() {
			law = sc.slab.keep.Point(ti.pages)
		}
		sc.laws[1<<uint(j)] = law
	}
	for mask := uint64(3); mask <= full; mask++ {
		if mask&(mask-1) == 0 {
			continue
		}
		law, err := c.sizeLaw(&sc.slab, sc.laws, mask)
		if err != nil {
			return scorer{}, err
		}
		sc.laws[mask] = law
	}
	return scorer{laws: c.staticLaws(mem), model: c.opts.CostModel, sizes: sc.laws}, nil
}

// sizeLaw is Algorithm D's size table, one law per mask by the rule of
// ctx.size (peel): where executed-size feedback observed mask, the hint as a
// point — a realized size is a fact, not a distribution — and otherwise the
// |rest|·|j|·σ(j, rest) law of the peeled table j joined onto the rest, with
// Section 3.6.3 rebucketing. laws holds the finished laws of mask's subsets;
// the new law lives in sl until the scratch is released.
func (c *ctx) sizeLaw(sl *lawSlab, laws []dist.Dist, mask uint64) (dist.Dist, error) {
	j, h := c.peel(mask)
	if h >= 0 {
		return sl.keep.Point(c.hints[h].pages), nil
	}
	bit := uint64(1) << uint(j)
	sigma, err := c.sigmaLawBetween(&sl.sig, j, mask&^bit)
	if err != nil {
		return dist.Dist{}, err
	}
	sl.tmp.Reset()
	law, err := expcost.ResultSizeDistIn(&sl.tmp, laws[mask&^bit], laws[bit], sigma, c.opts.SizeBuckets)
	if err == nil {
		law, err = sl.keep.Map(law, clampPages)
	}
	if errors.Is(err, dist.ErrBadDist) {
		// A size law over non-finite sizes: the statistics overflow, and
		// no plan over them has a finite cost.
		return dist.Dist{}, fmt.Errorf("%w: %w", ErrNoPlan, err)
	}
	return law, err
}

// withPhaseEC annotates a finished result with its per-phase analytic
// breakdown under the model and laws the plan was selected with.
func withPhaseEC(r Result, model cost.Model, laws []dist.Dist) (Result, error) {
	ph, err := ExpectedCostPhasesModel(model, r.Plan, laws)
	if err != nil {
		return Result{}, err
	}
	r.PhaseEC = ph
	return r, nil
}

// ExpectedCostModel evaluates EC(P) = Σ_phase E[cost_phase(M_phase)] for
// an annotated plan under the selected cost model: the sum of
// ExpectedCostPhasesModel's breakdown.
func ExpectedCostModel(model cost.Model, p *plan.Node, laws []dist.Dist) (float64, error) {
	phases, err := ExpectedCostPhasesModel(model, p, laws)
	if err != nil {
		return 0, err
	}
	return sumPhases(phases), nil
}

// sumPhases is EC from its phase breakdown: the sum in phase order.
func sumPhases(phases []float64) float64 {
	total := 0.0
	for _, c := range phases {
		total += c
	}
	return total
}

// ExpectedCostPhasesModel is the plan evaluator: it breaks EC(P) down by
// execution phase under the selected cost model, element i being
// E[cost_phase_i(M_i)], with len equal to p.Phases(). laws[i] is the
// marginal law of memory in phase i: pass one law for a static environment
// (it is repeated for every phase) or at least p.Phases() laws; any other
// count is ErrLawsShort. C(P, v) at a fixed or realized memory trajectory v
// is this call over dist.Points(v) — under a point law each expectation is
// 0 + 1·cost, the cost itself, bit for bit.
//
// Attribution mirrors the engine's physical conventions, so the breakdown
// is comparable entry by entry with ExecResult.PhaseIO:
//
//   - a join over k relations is charged in phase k-2, a sort enforcer in
//     the phase of the subtree it completes;
//   - materialized access paths (index scans, filtered heap scans) are
//     charged in phase 0, where the engine books them;
//   - an unfiltered heap scan is free — the consuming join's formula
//     already counts reading both inputs — except when a sort consumes it
//     directly, in which case the sort pays the base read in its phase.
//
// Joins are charged with their method's entry of cost.JoinCard, the
// bucket-order-preserving expectation of cost.JoinIOModel; sorts with
// cost.ExpectSortIO.
func ExpectedCostPhasesModel(model cost.Model, p *plan.Node, laws []dist.Dist) ([]float64, error) {
	return expectedPhases(nil, model, p, laws)
}

// expectedPhases is ExpectedCostPhasesModel writing the breakdown into buf,
// reallocated only when too short.
func expectedPhases(buf []float64, model cost.Model, p *plan.Node, laws []dist.Dist) ([]float64, error) {
	if len(laws) == 0 {
		return nil, ErrLawsShort
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	phases := p.Phases()
	if len(laws) > 1 && len(laws) < phases {
		return nil, fmt.Errorf("%w: %d laws for %d phases", ErrLawsShort, len(laws), phases)
	}
	lawAt := func(phase int) *dist.Dist {
		if len(laws) == 1 {
			phase = 0
		}
		return &laws[phase]
	}
	out := grow(buf, phases)
	clear(out)
	var rec func(n *plan.Node) int
	rec = func(n *plan.Node) int {
		switch n.Kind {
		case plan.KindScan:
			if n.Materialized() {
				out[0] += n.AccessIO()
			}
			return 1
		case plan.KindSort:
			k := rec(n.Child)
			phase := 0
			if k >= 2 {
				phase = k - 2
			}
			if n.Child.Kind == plan.KindScan && !n.Child.Materialized() {
				// The sort itself reads the unmaterialized base table.
				out[phase] += n.Child.AccessIO()
			}
			out[phase] += cost.ExpectSortIO(n.Child.OutPages, lawAt(phase))
			return k
		default: // join
			k := rec(n.Left) + rec(n.Right)
			var card [cost.BlockNL + 1]float64
			cost.JoinCard(&card, model, []cost.JoinMethod{n.Method}, n.Left.OutPages, n.Right.OutPages, lawAt(k-2))
			out[k-2] += card[n.Method]
			return k
		}
	}
	rec(p)
	return out, nil
}

package optimizer

import (
	"fmt"
	"math/bits"
	"sort"

	"lecopt/internal/catalog"
	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/expcost"
	"lecopt/internal/plan"
	"lecopt/internal/pool"
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
	s := pointScorer(mem, c.opts.CostModel)
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
	laws := staticLaws(mem, c.n)
	res, err := c.dpBest(scorer{laws, c.opts.CostModel})
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
	laws, err := chain.PhaseLaws(init, lastPhase(c.n)+1)
	if err != nil {
		return Result{}, err
	}
	res, err := c.dpBest(scorer{laws, c.opts.CostModel})
	if err != nil {
		return Result{}, err
	}
	return withPhaseEC(res, c.opts.CostModel, laws)
}

// bucketPoints lists the memory values Algorithms A and B probe with an LSC
// pass: every bucket of the law plus its mean. The paper notes the
// traditional expected value can be assumed to be among the candidates
// "without loss of generality"; including it makes the dominance guarantee
// versus mean-LSC hold by construction.
func bucketPoints(mem dist.Dist) []float64 {
	pts := make([]float64, 0, mem.Len()+1)
	for i := 0; i < mem.Len(); i++ {
		pts = append(pts, mem.Value(i))
	}
	return append(pts, mem.Mean())
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
	laws := staticLaws(mem, c.n)
	// The per-bucket LSC runs are independent System R passes over the
	// read-only prepared context, so they fan out across Options.Workers
	// goroutines; merging in bucket order afterwards keeps the outcome
	// identical to a serial run.
	type cand struct {
		res Result
		ec  float64
	}
	points := bucketPoints(mem)
	runs := make([]cand, len(points))
	outer := c.opts.workers(len(points))
	inner := c.opts.Workers
	if outer > 1 {
		// The bucket fan-out already saturates the requested concurrency;
		// nested rank-parallel DPs would only fight it for cores.
		inner = 1
	}
	err = pool.Run(len(points), outer, func(i int) error {
		r, err := c.dpBestW(pointScorer(points[i], c.opts.CostModel), inner)
		if err != nil {
			return err
		}
		ec, err := ExpectedCostModel(c.opts.CostModel, r.Plan, laws)
		if err != nil {
			return err
		}
		runs[i] = cand{r, ec}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	seen := map[string]bool{}
	var cands []cand
	for _, r := range runs {
		sig := r.res.Plan.Signature()
		if seen[sig] {
			continue
		}
		seen[sig] = true
		cands = append(cands, r)
	}
	best := -1
	for i := range cands {
		if best < 0 || better(cands[i].ec, cands[i].res.Plan, cands[best].ec, cands[best].res.Plan) {
			best = i
		}
	}
	if best < 0 {
		return Result{}, ErrNoPlan
	}
	return withPhaseEC(Result{Plan: cands[best].res.Plan, EC: cands[best].ec, Candidates: len(cands)}, c.opts.CostModel, laws)
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
	laws := staticLaws(mem, cx.n)
	type cand struct {
		e  entry
		ec float64
	}
	// Like Algorithm A, the per-bucket top-c passes are independent and
	// fan out across Options.Workers goroutines; the bucket-order merge
	// below keeps candidate selection deterministic.
	type bucketRun struct {
		cands  []cand
		probes int
	}
	points := bucketPoints(mem)
	runs := make([]bucketRun, len(points))
	err = pool.Run(len(points), cx.opts.workers(len(points)), func(i int) error {
		tops, pr, err := cx.dpTopC(pointScorer(points[i], cx.opts.CostModel), c)
		if err != nil {
			return err
		}
		run := bucketRun{probes: pr}
		for _, e := range tops {
			ec, err := ExpectedCostModel(cx.opts.CostModel, e.node, laws)
			if err != nil {
				return err
			}
			run.cands = append(run.cands, cand{e, ec})
		}
		runs[i] = run
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	seen := map[string]bool{}
	var cands []cand
	probes := 0
	for _, run := range runs {
		probes += run.probes
		for _, cd := range run.cands {
			sig := cd.e.node.Signature()
			if seen[sig] {
				continue
			}
			seen[sig] = true
			cands = append(cands, cd)
		}
	}
	best := -1
	for i := range cands {
		if best < 0 || better(cands[i].ec, cands[i].e.node, cands[best].ec, cands[best].e.node) {
			best = i
		}
	}
	if best < 0 {
		return Result{}, ErrNoPlan
	}
	return withPhaseEC(Result{Plan: cands[best].e.node, EC: cands[best].ec, Candidates: len(cands), Probes: probes}, cx.opts.CostModel, laws)
}

// dpTopC is the Algorithm B inner pass: System R keeping the top-c entries
// per (subset, order-slot) at a fixed parameter point, combining lists via
// the Proposition 3.1 frontier. Returns the completed root candidates
// (enforcer applied) and the total pair probes.
func (c *ctx) dpTopC(s scorer, topC int) ([]entry, int, error) {
	full := fullMask(c.n)
	dp := make([][2]topList, full+1)
	for j := 0; j < c.n; j++ {
		for _, e := range c.leafEntries(c.tables[j]) {
			dp[1<<uint(j)][c.slotOf(e.order)].add(e, topC)
		}
	}
	probes := 0
	var cands []int
	for size := 2; size <= c.n; size++ {
		for mask := uint64(1); mask <= full; mask++ {
			if bits.OnesCount64(mask) != size {
				continue
			}
			phase := phaseOfMask(mask)
			cands = c.candidatesInto(mask, cands[:0])
			for _, j := range cands {
				bit := uint64(1) << uint(j)
				rest := mask &^ bit
				sigma := c.sigmaBetween(j, rest)
				merges := c.mergeOrders(j, rest)
				for ls := 0; ls < 2; ls++ {
					left := &dp[rest][ls]
					if len(left.entries) == 0 {
						continue
					}
					for rs := 0; rs < 2; rs++ {
						right := &dp[bit][rs]
						if len(right.entries) == 0 {
							continue
						}
						// All variants in a list share identical physical
						// properties (same pages), so the output size and
						// the frontier over score sums are the same for
						// every method, and the join cost is a constant per
						// method.
						lp, rp := left.entries[0].pages, right.entries[0].pages
						outPages := c.joinOutPages(mask, c.clampPages(lp*rp*sigma))
						pairs, pr := TopCCombine(left.scores(), right.scores(), topC)
						for _, m := range c.opts.Methods {
							jc := s.joinScore(m, lp, rp, phase)
							probes += pr
							for _, p := range pairs {
								le, re := left.entries[p[0]], right.entries[p[1]]
								score := le.score + re.score + jc
								order, sl := c.joinOutput(m, merges, le.order, ls)
								if l := &dp[mask][sl]; l.admits(score, topC) {
									node := plan.NewJoin(m, le.node, re.node, outPages, order)
									l.add(entry{node: node, score: score, pages: outPages, order: order}, topC)
								}
							}
						}
					}
				}
			}
		}
	}
	var out []entry
	phase := lastPhase(c.n)
	for sl := 0; sl < 2; sl++ {
		for _, e := range dp[full][sl].entries {
			cand := e
			if c.blk.OrderBy != nil && sl == 0 {
				cand.score += enforcerScore(s, e, phase)
				cand.node = plan.NewSort(e.node, c.required)
				cand.order = c.required
			}
			out = append(out, cand)
		}
	}
	if len(out) == 0 {
		return nil, probes, ErrNoPlan
	}
	sort.Slice(out, func(a, b int) bool {
		return better(out[a].score, out[a].node, out[b].score, out[b].node)
	})
	if len(out) > topC {
		out = out[:topC]
	}
	return out, probes, nil
}

// AlgorithmD computes the LEC plan under joint uncertainty in memory,
// base-relation sizes and join selectivities (Section 3.6). Each DP node
// carries exactly the four distributions of Figure 1 — Pr(M) (global),
// Pr(|Bj|) (propagated result sizes), Pr(|Aj|) (base sizes) and Pr(σ) —
// and propagates the result-size law with Section 3.6.3 rebucketing.
// selLaws maps EdgeKey(join) to a selectivity law; sizeLaws maps table
// name to a filtered-size law. Missing entries use point estimates.
func AlgorithmD(cat *catalog.Catalog, blk *query.Block, opts Options, mem dist.Dist,
	selLaws map[string]dist.Dist, sizeLaws map[string]dist.Dist) (Result, error) {
	c, err := prepare(cat, blk, opts)
	if err != nil {
		return Result{}, err
	}
	c.setSelLaws(selLaws)
	c.setSizeLaws(sizeLaws)
	res, err := c.dpDist(mem)
	if err != nil {
		return Result{}, err
	}
	// D's PhaseEC is evaluated at the plan's annotated point sizes: the
	// joint size laws don't decompose per phase, the memory law does.
	return withPhaseEC(res, c.opts.CostModel, staticLaws(mem, c.n))
}

// distEntry extends entry with the node's size law.
type distEntry struct {
	entry
	law dist.Dist
}

// distSlot is one cell of Algorithm D's table: like dpSlot, the best entry
// per order slot, held by value.
type distSlot struct {
	e  [2]distEntry
	ok [2]bool
}

// dpDist is the Algorithm D dynamic program.
func (c *ctx) dpDist(mem dist.Dist) (Result, error) {
	full := fullMask(c.n)
	dp := make([]distSlot, full+1)
	for j := 0; j < c.n; j++ {
		ti := c.tables[j]
		cell := &dp[1<<uint(j)]
		for _, e := range c.leafEntries(ti) {
			sl := c.slotOf(e.order)
			if !cell.ok[sl] || better(e.score, e.node, cell.e[sl].score, cell.e[sl].node) {
				cell.e[sl], cell.ok[sl] = distEntry{entry: e, law: ti.sizeLaw}, true
			}
		}
	}
	var cands []int
	for size := 2; size <= c.n; size++ {
		for mask := uint64(1); mask <= full; mask++ {
			if bits.OnesCount64(mask) != size {
				continue
			}
			cell := &dp[mask]
			cands = c.candidatesInto(mask, cands[:0])
			for _, j := range cands {
				bit := uint64(1) << uint(j)
				rest := mask &^ bit
				var sigmaLaw dist.Dist // joinSizeLaw's cache for (mask, j)
				merges := c.mergeOrders(j, rest)
				for ls := 0; ls < 2; ls++ {
					if !dp[rest].ok[ls] {
						continue
					}
					left := &dp[rest].e[ls]
					for rs := 0; rs < 2; rs++ {
						if !dp[bit].ok[rs] {
							continue
						}
						right := &dp[bit].e[rs]
						// The candidate's size law (a σ-law product, three
						// rebucketings and a triple product) is built by the
						// first method that survives the score check: a pair
						// whose every method loses costs no law at all.
						var outLaw dist.Dist
						var outPages float64
						for _, m := range c.opts.Methods {
							score := left.score + right.score + expcost.JoinECModel(c.opts.CostModel, m, left.law, right.law, mem)
							order, sl := c.joinOutput(m, merges, left.order, ls)
							if cell.ok[sl] && score > cell.e[sl].score {
								continue // strictly worse: skip building the law and the node
							}
							if outLaw.IsZero() {
								var err error
								if outLaw, err = c.joinSizeLaw(mask, j, left.law, right.law, &sigmaLaw); err != nil {
									return Result{}, err
								}
								outPages = outLaw.Mean()
							}
							node := plan.NewJoin(m, left.node, right.node, outPages, order)
							if cell.ok[sl] && !better(score, node, cell.e[sl].score, cell.e[sl].node) {
								continue
							}
							cell.e[sl] = distEntry{
								entry: entry{node: node, score: score, pages: outPages, order: order},
								law:   outLaw,
							}
							cell.ok[sl] = true
						}
					}
				}
			}
		}
	}
	// Root completion with an expected-cost enforcer over the size law.
	var best entry
	have := false
	for sl := 0; sl < 2; sl++ {
		if !dp[full].ok[sl] {
			continue
		}
		e := &dp[full].e[sl]
		cand := e.entry
		if c.blk.OrderBy != nil && sl == 0 {
			cand.score += expcost.SortEC(e.law, mem)
			if e.node.Kind == plan.KindScan && !e.node.Materialized() {
				cand.score += e.node.AccessIO()
			}
			cand.node = plan.NewSort(e.node, c.required)
			cand.order = c.required
		}
		if !have || better(cand.score, cand.node, best.score, best.node) {
			best, have = cand, true
		}
	}
	if !have {
		return Result{}, ErrNoPlan
	}
	if err := checkFinite(best.score); err != nil {
		return Result{}, err
	}
	return Result{Plan: best.node, EC: best.score, Candidates: 1}, nil
}

// joinSizeLaw returns the result-size law of the join that completes mask by
// adding table j: the propagated |left|·|right|·σ law with Section 3.6.3
// rebucketing — or, where executed-size feedback has an observation for
// mask, that size as a point: a realized size is a fact, not a distribution.
// sigmaLaw caches the σ-law of (mask, j) across the order slots of one
// candidate; the zero Dist means not built yet.
func (c *ctx) joinSizeLaw(mask uint64, j int, left, right dist.Dist, sigmaLaw *dist.Dist) (dist.Dist, error) {
	if v, ok := c.sizeHint[mask]; ok {
		return dist.Point(v), nil
	}
	if sigmaLaw.IsZero() {
		*sigmaLaw = c.sigmaLawBetween(j, mask&^(1<<uint(j)))
	}
	law, err := expcost.ResultSizeDist(left, right, *sigmaLaw, c.opts.SizeBuckets)
	if err != nil {
		return dist.Dist{}, err
	}
	return law.Map(c.clampPages), nil
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

// ExpectedCost evaluates EC(P) = Σ_phase E[cost_phase(M_phase)] for an
// annotated plan under per-phase memory laws (laws[i] is the marginal law
// of memory in phase i; pass a single-element slice for a static law —
// it is repeated for later phases). Scan costs are memory-independent.
func ExpectedCost(p *plan.Node, laws []dist.Dist) (float64, error) {
	return ExpectedCostModel(cost.ModelPaper, p, laws)
}

// ExpectedCostModel is ExpectedCost under the selected cost model.
func ExpectedCostModel(model cost.Model, p *plan.Node, laws []dist.Dist) (float64, error) {
	phases, err := ExpectedCostPhasesModel(model, p, laws)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, c := range phases {
		total += c
	}
	return total, nil
}

// ExpectedCostPhasesModel breaks EC(P) down by execution phase under the
// selected cost model: element i is E[cost_phase_i(M_i)], with len equal to
// p.Phases(). Attribution follows plan.CostPhasesModel (and therefore the
// engine's physical conventions): materialized access paths land in phase
// 0, unfiltered heap scans are paid by their consumer, joins and sorts in
// the phase of the subtree they complete. Joins are charged with
// cost.ExpectJoinIO, the bucket-order-preserving expectation of
// cost.JoinIOModel. Conditioning the same breakdown on a realized memory
// trajectory instead of the laws is plan.CostPhasesModel itself.
func ExpectedCostPhasesModel(model cost.Model, p *plan.Node, laws []dist.Dist) ([]float64, error) {
	if len(laws) == 0 {
		return nil, ErrLawsShort
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	lawAt := func(phase int) *dist.Dist {
		if phase >= len(laws) {
			phase = len(laws) - 1
		}
		return &laws[phase]
	}
	out := make([]float64, p.Phases())
	var rec func(n *plan.Node) (int, error)
	rec = func(n *plan.Node) (int, error) {
		switch n.Kind {
		case plan.KindScan:
			if n.Materialized() {
				out[0] += n.AccessIO()
			}
			return 1, nil
		case plan.KindSort:
			k, err := rec(n.Child)
			if err != nil {
				return 0, err
			}
			phase := 0
			if k >= 2 {
				phase = k - 2
			}
			if n.Child.Kind == plan.KindScan && !n.Child.Materialized() {
				// The sort itself reads the unmaterialized base table.
				out[phase] += n.Child.AccessIO()
			}
			out[phase] += cost.ExpectSortIO(n.Child.OutPages, lawAt(phase))
			return k, nil
		default: // join
			kl, err := rec(n.Left)
			if err != nil {
				return 0, err
			}
			kr, err := rec(n.Right)
			if err != nil {
				return 0, err
			}
			k := kl + kr
			out[k-2] += cost.ExpectJoinIO(model, n.Method, n.Left.OutPages, n.Right.OutPages, lawAt(k-2))
			return k, nil
		}
	}
	if _, err := rec(p); err != nil {
		return nil, err
	}
	return out, nil
}

// PhaseLawsFor builds the per-phase laws for an n-relation query: the
// static law repeated, or the chain's i-step marginals when dynamic.
func PhaseLawsFor(n int, static dist.Dist, chain *dist.Chain) ([]dist.Dist, error) {
	k := lastPhase(n) + 1
	if chain == nil {
		return staticLaws(static, n), nil
	}
	return chain.PhaseLaws(static, k)
}

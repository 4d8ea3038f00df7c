package optimizer

import (
	"lecopt/internal/catalog"
	"lecopt/internal/dist"
	"lecopt/internal/plan"
	"lecopt/internal/query"
)

// ExhaustiveLEC enumerates every left-deep plan (all join orders, all join
// methods, all access paths, enforcer added when needed) and returns the
// one of least expected cost under the per-phase memory laws. It scores
// plans with ExpectedCostModel — an evaluation path independent of the DP's
// incremental scoring — so it serves as the correctness oracle for
// Theorems 3.3 and 3.4 on small queries. Exponential: use only for n ≤ 6.
func ExhaustiveLEC(cat *catalog.Catalog, blk *query.Block, opts Options, laws []dist.Dist) (Result, error) {
	if len(laws) == 0 {
		return Result{}, ErrLawsShort
	}
	c, err := prepare(cat, blk, opts)
	if err != nil {
		return Result{}, err
	}
	res, err := c.exhaustive(func(p *plan.Node) (float64, error) {
		return ExpectedCostModel(c.opts.CostModel, p, laws)
	})
	if err != nil {
		return Result{}, err
	}
	return withPhaseEC(res, c.opts.CostModel, laws)
}

// ExhaustiveLSC is the point-cost oracle for Theorem 2.1: the true best
// left-deep plan at one memory value, found by brute force and scored with
// the evaluator under that value's point law.
func ExhaustiveLSC(cat *catalog.Catalog, blk *query.Block, opts Options, mem float64) (Result, error) {
	c, err := prepare(cat, blk, opts)
	if err != nil {
		return Result{}, err
	}
	laws := []dist.Dist{dist.Point(mem)}
	res, err := c.exhaustive(func(p *plan.Node) (float64, error) {
		return ExpectedCostModel(c.opts.CostModel, p, laws)
	})
	if err != nil {
		return Result{}, err
	}
	return withPhaseEC(res, c.opts.CostModel, laws)
}

// exhaustive enumerates all left-deep plans and keeps the minimum under
// eval. Candidates counts complete plans evaluated.
func (c *ctx) exhaustive(eval func(*plan.Node) (float64, error)) (Result, error) {
	type partial struct {
		node  *plan.Node
		pages float64
		order plan.Order
		mask  uint64
	}
	var best *Result
	candidates := 0
	full := fullMask(c.n)

	finish := func(p partial) error {
		node := p.node
		if c.blk.OrderBy != nil && !c.satisfiesOrderBy(p.order) {
			node = plan.NewSort(node, c.required)
		}
		score, err := eval(node)
		if err != nil {
			return err
		}
		candidates++
		if best == nil || better(score, node, best.EC, best.Plan) {
			best = &Result{Plan: node, EC: score}
		}
		return nil
	}

	var extend func(p partial) error
	extend = func(p partial) error {
		if p.mask == full {
			return finish(p)
		}
		for j := 0; j < c.n; j++ {
			bit := uint64(1) << uint(j)
			if p.mask&bit != 0 {
				continue
			}
			// Mirror the DP's cross-product rule exactly: j may extend the
			// prefix iff it would be a candidate "last join" for the
			// resulting subset.
			if !c.isCandidate(j, p.mask|bit) {
				continue
			}
			sigma := c.sigmaBetween(j, p.mask)
			merges := c.mergeOrders(j, p.mask)
			for _, leaf := range c.leafEntries(c.tables[j]) {
				outPages := c.joinOutPages(p.mask|bit, c.clampPages(p.pages*leaf.pages*sigma))
				for _, m := range c.opts.Methods {
					order, _ := c.joinOutput(m, merges, p.order, 0)
					node := plan.NewJoin(m, p.node, leaf.node, outPages, order)
					if err := extend(partial{node: node, pages: outPages, order: order, mask: p.mask | bit}); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}

	for j := 0; j < c.n; j++ {
		for _, leaf := range c.leafEntries(c.tables[j]) {
			p := partial{node: leaf.node, pages: leaf.pages, order: leaf.order, mask: 1 << uint(j)}
			if c.n == 1 {
				if err := finish(p); err != nil {
					return Result{}, err
				}
				continue
			}
			if err := extend(p); err != nil {
				return Result{}, err
			}
		}
	}
	if best == nil {
		return Result{}, ErrNoPlan
	}
	best.Candidates = candidates
	return *best, nil
}

// AllLeftDeepPlans returns every complete left-deep plan for the block
// (enforcers applied), for analyses that need the full plan space (e.g.
// computing the true LEC plan under an arbitrary evaluation). The count
// grows as n!·m^(n-1)·a^n — small n only.
func AllLeftDeepPlans(cat *catalog.Catalog, blk *query.Block, opts Options) ([]*plan.Node, error) {
	c, err := prepare(cat, blk, opts)
	if err != nil {
		return nil, err
	}
	var out []*plan.Node
	_, err = c.exhaustive(func(p *plan.Node) (float64, error) {
		out = append(out, p)
		return 0, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Note: the exhaustive enumerator deliberately does not dedup plans; the
// DP algorithms must beat or tie every single one.

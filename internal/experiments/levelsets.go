package experiments

import (
	"sort"

	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/plan"
)

// planBreakpoints returns the ascending memory values at which the whole
// plan's static-memory cost C(P, m) changes — the union of every
// operator's level-set boundaries (Section 3.7: "values of v that yield
// C(P,v) = c are called a level set"). Between consecutive returned values
// the plan's cost is constant. maxBlockBreaks caps the breakpoints
// contributed by a BlockNL join (whose formula has one per outer-block
// count); plans without BlockNL are unaffected.
func planBreakpoints(p *plan.Node, maxBlockBreaks int) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	set := map[float64]bool{}
	p.Walk(func(n *plan.Node) {
		switch n.Kind {
		case plan.KindJoin:
			for _, b := range cost.JoinBreakpoints(n.Method, n.Left.OutPages, n.Right.OutPages, maxBlockBreaks) {
				set[b] = true
			}
		case plan.KindSort:
			for _, b := range cost.SortBreakpoints(n.Child.OutPages) {
				set[b] = true
			}
		}
	})
	out := make([]float64, 0, len(set))
	for b := range set {
		out = append(out, b)
	}
	sort.Float64s(out)
	return out, nil
}

// planECLevelSets computes E[C(P, M)] for a static memory law by
// evaluating the plan's cost once per OCCUPIED level set instead of once
// per support point: the Section 3.7 observation that "in principle, we
// can compute EC(P) with ℓ evaluations of the cost function". The result
// equals the evaluator's EC under the law (for plans without BlockNL, or
// with BlockNL whose block counts stay within maxBlockBreaks), but the
// number of cost evaluations is bounded by the number of level sets the
// law actually touches — independent of the law's bucket count b.
//
// Returns the expected cost and the number of cost-function evaluations
// performed.
func planECLevelSets(p *plan.Node, mem dist.Dist, maxBlockBreaks int) (ec float64, evals int, err error) {
	breaks, err := planBreakpoints(p, maxBlockBreaks)
	if err != nil {
		return 0, 0, err
	}
	// The law's support is ascending, so the points of one level-set
	// region [breaks[r-1], breaks[r]) are consecutive: price each occupied
	// region once, at its lowest point, weighted by its mass.
	region := func(v float64) int {
		return sort.Search(len(breaks), func(j int) bool { return breaks[j] > v })
	}
	for i := 0; i < mem.Len(); {
		rep, r, mass := mem.Value(i), region(mem.Value(i)), 0.0
		for ; i < mem.Len() && region(mem.Value(i)) == r; i++ {
			mass += mem.Prob(i)
		}
		if mass == 0 {
			continue
		}
		c, err := costAt(p, rep)
		if err != nil {
			return 0, 0, err
		}
		ec += mass * c
		evals++
	}
	return ec, evals, nil
}

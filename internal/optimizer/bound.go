package optimizer

import (
	"math"
	"math/bits"

	"lecopt/internal/cost"
	"lecopt/internal/query"
)

// boundMinTables is the smallest query whose single-entry passes are
// bounded: below it pricing the greedy plan costs about what its bound
// saves (DESIGN.md, "Bounded kernel").
const boundMinTables = 5

// greedyStep is one table of the greedy order. The first step is the start
// table, a leaf in each order slot by access path access[slot]; every later
// step joins its table, by its cheapest access path access[0], onto the
// prefix, and for each output slot records the method and the prefix slot
// (left) of the cheapest join landing there — −1 where none does.
type greedyStep struct {
	table  int
	access [2]int
	method [2]cost.JoinMethod
	left   [2]int
}

// greedyPlan is a complete left-deep plan in the searched space: the greedy
// order's steps, with the order slot it completes in (slot) and its score
// as the kernel prices it, root enforcer included — +Inf where there is no
// bound.
type greedyPlan struct {
	steps [query.MaxTables]greedyStep
	slot  int
	score float64
}

// greedy prices the bound of a single-entry pass. It starts at the table of
// least size (ties to the lowest index) and repeatedly joins on the table,
// adjacent to the prefix, whose join scores least over both order slots,
// best method and left slot taken. Each join is priced as expand prices it,
// (left + right) + joinScore(m, size[prefix], size[j], phase), with the
// table's cheapest access path on the right, and the root is completed as
// complete completes it. It builds no node and allocates nothing. Queries
// under boundMinTables tables, and join graphs the greedy order cannot
// cover without a cross product, get no bound.
func (c *ctx) greedy(s scorer) greedyPlan {
	inf := math.Inf(1)
	g := greedyPlan{score: inf}
	if c.n < boundMinTables {
		return g
	}
	t0 := 0
	for j := 1; j < c.n; j++ {
		if c.size[1<<uint(j)] < c.size[1<<uint(t0)] {
			t0 = j
		}
	}
	g.steps[0] = greedyStep{table: t0, access: [2]int{-1, -1}, left: [2]int{-1, -1}}
	cur := [2]float64{inf, inf} // per slot: the prefix's score, +Inf where no plan lands
	for ai, ac := range c.tables[t0].accesses {
		slot := c.slotOf(ac.node.OutOrder)
		if score := leafEntry(ac).score; score < cur[slot] {
			cur[slot], g.steps[0].access[slot] = score, ai
		}
	}
	prefix, reach := uint64(1)<<uint(t0), c.adj[t0]
	for k := 1; k < c.n; k++ {
		next := [2]float64{inf, inf}
		for m := reach &^ prefix; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			bit := uint64(1) << uint(j)
			ra, right := 0, leafEntry(c.tables[j].accesses[0]).score
			for ai, ac := range c.tables[j].accesses[1:] {
				if score := leafEntry(ac).score; score < right {
					ra, right = ai+1, score
				}
			}
			merges, phase := c.mergeOrders(j, prefix), phaseOfMask(prefix|bit)
			cand := greedyStep{table: j, access: [2]int{ra, ra}, left: [2]int{-1, -1}}
			out := [2]float64{inf, inf}
			for _, jm := range c.opts.Methods {
				price := s.joinScore(jm, c.size[prefix], c.size[bit], phase)
				for ls := range cur {
					score := (cur[ls] + right) + price
					if os := joinSlot(jm, merges, ls); score < out[os] {
						out[os], cand.left[os], cand.method[os] = score, ls, jm
					}
				}
			}
			if min(out[0], out[1]) < min(next[0], next[1]) {
				g.steps[k], next = cand, out
			}
		}
		if min(next[0], next[1]) == inf {
			return greedyPlan{score: inf} // no adjacent table left: no bound
		}
		cur = next
		prefix, reach = prefix|1<<uint(g.steps[k].table), reach|c.adj[g.steps[k].table]
	}
	for slot, score := range cur {
		if c.blk.OrderBy != nil && slot == 0 {
			// The root is a join, so enforcerScore's charge is the sort alone.
			score += cost.ExpectSortIO(c.size[prefix], s.law(lastPhase(c.n)))
		}
		if score < g.score {
			g.slot, g.score = slot, score
		}
	}
	return g
}

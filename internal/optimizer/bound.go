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
const boundMinTables = 4

// boundSlack is the relative room a floored bar leaves above the bound, for
// the rounding of the scores and floors it compares and for laws whose
// weights sum to 1 − 1 ulp.
const boundSlack = 1e-12

// pageCap is cost's cap on the pages a price counts (cost.maxPages, 2⁵²):
// every join price is at least min(outer, pageCap) + min(inner, pageCap).
const pageCap = 1 << 52

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
// least pages (ties to the lowest index) and repeatedly joins on the table,
// adjacent to the prefix, whose join scores least over both order slots,
// best method and left slot taken. Each join is priced as expand prices it,
// (left + right) + card[m] from one priceCard per table, with the table's
// cheapest access path on the right, and the root is completed as complete
// completes it. It builds no node and allocates nothing. Queries
// under boundMinTables tables, and join graphs the greedy order cannot
// cover without a cross product, get no bound.
func (c *ctx) greedy(s scorer) greedyPlan {
	inf := math.Inf(1)
	g := greedyPlan{score: inf}
	if c.n < boundMinTables {
		return g
	}
	t0, least := 0, c.pages(s, 1)
	for j := 1; j < c.n; j++ {
		if p := c.pages(s, 1<<uint(j)); p < least {
			t0, least = j, p
		}
	}
	g.steps[0] = greedyStep{table: t0, access: [2]int{-1, -1}, left: [2]int{-1, -1}}
	cur := [2]float64{inf, inf} // per slot: the prefix's score, +Inf where no plan lands
	for ai, ac := range c.tables[t0].accesses {
		slot := c.slotOf(ac.node.OutOrder)
		if score := leafScore(ac); score < cur[slot] {
			cur[slot], g.steps[0].access[slot] = score, ai
		}
	}
	prefix, reach := uint64(1)<<uint(t0), c.adj[t0]
	for k := 1; k < c.n; k++ {
		next := [2]float64{inf, inf}
		for m := reach &^ prefix; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			bit := uint64(1) << uint(j)
			ra, right := 0, leafScore(c.tables[j].accesses[0])
			for ai, ac := range c.tables[j].accesses[1:] {
				if score := leafScore(ac); score < right {
					ra, right = ai+1, score
				}
			}
			merges, phase := c.mergeOrders(j, prefix), phaseOfMask(prefix|bit)
			cand := greedyStep{table: j, access: [2]int{ra, ra}, left: [2]int{-1, -1}}
			out := [2]float64{inf, inf}
			var card [cost.BlockNL + 1]float64
			c.priceCard(&card, &s, prefix, bit, phase)
			for _, jm := range c.opts.Methods {
				for ls := range cur {
					score := (cur[ls] + right) + card[jm]
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
			score += c.sortPrice(s)
		}
		if score < g.score {
			g.slot, g.score = slot, score
		}
	}
	return g
}

// setBars sets every cell's bar for a pass under bound, and each mask's
// floorPages at sc.floor[mask]. A leaf and the full subset are barred at
// bound itself. Any other subset S is barred at bound·(1+boundSlack) −
// floor(S), the least any completion of S can still cost:
//
//	floor(S) = floorPages(S) + Σ_{j∉S} floorPages(j)
//
// A left-deep completion of S joins every table outside S once as a right
// input, and S itself once as a left input, and every join price reads both
// its inputs. A subplan of S scoring above its bar therefore cannot lead to
// a plan within bound. A leaf is also every join's right input, which that
// argument does not cover; the full subset has no completion but its root
// sort, which may be free. With bound +Inf every bar is +Inf.
//
// A subplan of S reads each table of S once, so S's cells admit nothing
// where floorPages(S) + Σ_j floorPages(j), over all tables, exceeds the
// bound (up to boundSlack): setBars sets their bars to −1, which tells
// expand to skip the mask, and sums no floor for them.
func (c *ctx) setBars(sc *dpScratch, s scorer, bound float64) {
	full := fullMask(c.n)
	sc.floor = grow(sc.floor, int(full)+1)
	for mask := uint64(1); mask <= full; mask++ {
		sc.floor[mask] = c.floorPages(s, mask)
	}
	for i := range sc.bar {
		sc.bar[i] = bound
	}
	if math.IsInf(bound, 1) {
		return
	}
	top, leaves := bound*(1+boundSlack), 0.0
	for j := range c.n {
		leaves += sc.floor[1<<uint(j)]
	}
	most := top - leaves*(1-boundSlack) // the largest floorPages(S) that can leave S a plan
	for mask := uint64(3); mask < full; mask++ {
		if mask&(mask-1) == 0 {
			continue
		}
		bar := -1.0
		if floor := sc.floor[mask]; !(floor > most) {
			for m := full &^ mask; m != 0; m &= m - 1 {
				floor += sc.floor[m&-m]
			}
			bar = top - floor
		}
		sc.bar[cell(mask, 0)], sc.bar[cell(mask, 1)] = bar, bar
	}
}

// floorPages is the least a join pays to read mask's result as an input:
// min(pages, pageCap), and for Algorithm D the expectation of that over the
// mask's size law — min is concave, so the capped mean can exceed it.
func (c *ctx) floorPages(s scorer, mask uint64) float64 {
	if s.sizes == nil {
		return min(c.size[mask], pageCap)
	}
	law, e := &s.sizes[mask], 0.0
	for i := range law.Len() {
		v, p := law.At(i)
		e += p * min(v, pageCap)
	}
	return e
}

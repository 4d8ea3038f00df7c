package optimizer

import (
	"math/bits"
	"slices"

	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/expcost"
	"lecopt/internal/plan"
	"lecopt/internal/query"
)

// scorer costs a join or sort in one execution phase: in expectation under
// that phase's memory law. With a single repeated law it is Algorithm C's
// static case; with Markov phase laws it is the Section 3.5 dynamic case.
// Expectation distributes over the plan's phase-cost sum, which is exactly
// why the DP argument of Theorem 3.3 carries over (Theorem 3.4). The
// classical optimizer (LSC, Theorem 2.1) is the same scorer over a point
// law — 0 + 1·cost is cost, bit for bit (pointScorer) — so the dynamic
// programs call one concrete type. Algorithm D's scorer (lawScorer) also
// carries every subset's size law and prices by subset over those laws.
type scorer struct {
	laws  []dist.Dist
	model cost.Model
	// sizes, Algorithm D's alone, holds the result-size law of every mask:
	// a subset's pages are its law's mean, and joins and the root sort are
	// priced in expectation over the laws of their inputs. nil sizes every
	// subset at ctx.size.
	sizes []dist.Dist
}

// pointScorer costs at one fixed memory value. Its law lives in c until
// release, so every pass of a request can hold its own.
func (c *ctx) pointScorer(mem float64) scorer {
	c.pts = append(c.pts, c.slab.Point(mem))
	return scorer{laws: c.pts[len(c.pts)-1:], model: c.opts.CostModel}
}

func (s *scorer) law(phase int) *dist.Dist {
	if phase >= len(s.laws) {
		phase = len(s.laws) - 1
	}
	return &s.laws[phase]
}

// pages is the result size of mask's tables under s: ctx.size, or the mean
// of Algorithm D's law.
func (c *ctx) pages(s scorer, mask uint64) float64 {
	if s.sizes != nil {
		return s.sizes[mask].Mean()
	}
	return c.size[mask]
}

// priceCard prices joining table bit onto a prefix covering rest, in phase,
// by every method the pass searches: it sets card[m] to method m's price.
func (c *ctx) priceCard(card *[cost.BlockNL + 1]float64, s *scorer, rest, bit uint64, phase int) {
	if s.sizes == nil {
		cost.JoinCard(card, s.model, c.opts.Methods, c.size[rest], c.size[bit], s.law(phase))
		return
	}
	for _, m := range c.opts.Methods {
		card[m] = expcost.JoinECModel(s.model, m, s.sizes[rest], s.sizes[bit], *s.law(phase))
	}
}

// sortPrice is the price of the root ORDER BY sort of the query's result.
func (c *ctx) sortPrice(s scorer) float64 {
	full := fullMask(c.n)
	if s.sizes != nil {
		return expcost.SortEC(s.sizes[full], *s.law(lastPhase(c.n)))
	}
	return cost.ExpectSortIO(c.size[full], s.law(lastPhase(c.n)))
}

// staticLaws returns the phase laws of a static environment: law alone,
// which the scorer and the evaluator both repeat for every phase. It lives
// in c until release.
func (c *ctx) staticLaws(law dist.Dist) []dist.Dist {
	c.law[0] = law
	return c.law[:]
}

// entry is one retained subplan of a DP cell, in 16 bytes: its score and
// how it was made. Every entry reads one access path last: a leaf its own,
// a join its right input, one of table's access candidates. A join names
// its left input by table index — cell·depth + position in that cell — and
// its method; its left input covers the entry's subset less table. A root
// entry (complete) may carry the ORDER BY sort. A plan is built only for
// the entries a pass returns (tree), and ties between entries are broken
// on their signatures without building either (sigOrder). An entry's order
// property is its cell's slot; the output orders a built plan carries are
// the ones its chain of methods gives (buildInto).
type entry struct {
	score  float64
	left   uint32  // join: the left input's index in the table
	access uint16  // the access candidate of table the entry reads last
	table  uint8   // that table's position in the FROM list
	op     entryOp // leaf or join and its method, under the root sort or not
}

// entryOp says what an entry is: a leaf, or a join by a method, and whether
// it sits under the root sort.
type entryOp uint8

const (
	opMethod entryOp = 3      // a join's method, in the low bits
	opJoin   entryOp = 1 << 2 // a join; a leaf without it
	opSort   entryOp = 1 << 3 // a root entry under the ORDER BY sort
)

// Every join method fits opMethod's bits.
const _ = uint(opMethod - entryOp(cost.BlockNL))

func (op entryOp) join() bool              { return op&opJoin != 0 }
func (op entryOp) sorted() bool            { return op&opSort != 0 }
func (op entryOp) method() cost.JoinMethod { return cost.JoinMethod(op & opMethod) }

// scan is the access path entry e reads last: a leaf's own, or a join's
// right input.
func (c *ctx) scan(e *entry) *plan.Node { return c.tables[e.table].accesses[e.access].node }

// slotOf maps an order property to a DP slot: 1 when it satisfies the
// query's ORDER BY, 0 otherwise. Keeping the best plan per slot is the
// light-weight version of System R's "interesting orders" that our cost
// model needs (joins sort their own inputs, so order can only matter at
// the root).
func (c *ctx) slotOf(o plan.Order) int {
	if c.blk.OrderBy != nil && c.satisfiesOrderBy(o) {
		return 1
	}
	return 0
}

// leafScore is the score of one access path of a table. Materialized
// access paths (index scans, filtered heap scans) score their access cost;
// an unfiltered heap scan scores 0 — its base read is part of the consuming
// join's formula (see plan.Node.Materialized). Every access path of a table
// has the table's size, as every plan of a subset has the subset's
// (ctx.size).
func leafScore(ac accessCand) float64 {
	if !ac.node.Materialized() {
		return 0
	}
	return ac.io
}

// enforcerScore is the cost of the root ORDER BY enforcer over entry e of
// the whole query: the sort of the query's result size, plus the base read
// when the sort consumes an unmaterialized heap scan directly (single-table
// plans — no join ever paid for it).
func (c *ctx) enforcerScore(s scorer, e *entry) float64 {
	price := c.sortPrice(s)
	if ac := c.scan(e); !e.op.join() && !ac.Materialized() {
		price += ac.AccessIO()
	}
	return price
}

// dpBest runs the kernel keeping one entry per (subset, order slot) and
// returns the cheapest complete plan: over a point law the System R dynamic
// program's LSC left-deep plan (Theorem 2.1), over memory laws Algorithm
// C's LEC left-deep plan (Theorems 3.3/3.4).
func (c *ctx) dpBest(s scorer) (Result, error) {
	sc := getScratch(keepBest, 1, c.n)
	defer sc.release()
	return c.best(sc, s)
}

// best is winner's plan, built into a Result that owns it.
func (c *ctx) best(sc *dpScratch, s scorer) (Result, error) {
	e, err := c.winner(sc, s)
	if err != nil {
		return Result{}, err
	}
	return Result{Plan: c.tree(sc, s, e).Clone(), EC: e.score, Candidates: 1}, nil
}

// winner runs a single-entry pass in sc, every cell barred by the score of
// the greedy plan (greedy, setBars), and returns its cheapest complete
// plan, which lives in sc.
func (c *ctx) winner(sc *dpScratch, s scorer) (*entry, error) {
	c.run(sc, s, c.greedy(s).score)
	best := c.bestRoot(sc, s)
	if best == nil {
		return nil, ErrNoPlan
	}
	if err := checkFinite(best.score); err != nil {
		return nil, err
	}
	return best, nil
}

// bestRoot completes a single-entry pass and returns its cheapest complete
// plan, nil when the table holds none.
func (c *ctx) bestRoot(sc *dpScratch, s scorer) *entry {
	c.complete(sc, s)
	by := sigOrder{c, sc}
	var best *entry
	for i := range sc.root {
		if e := &sc.root[i]; best == nil || by.better(e, best) {
			best = e
		}
	}
	return best
}

// run is the subset DP of every algorithm: System R's bottom-up pass over
// the table subsets in rank (popcount) order, keeping per (subset, order
// slot) what sc's policy asks for — the best entry or the top depth
// entries. Every mask of a rank reads only finalized smaller ranks. All
// state lives in sc, which the caller releases once nothing it needs
// points into it.
//
// No cell admits an entry scoring above its bar, and setBars bars only
// subplans that cannot lead to a plan within bound. So a bound that is the
// score of a complete plan in the searched space leaves the winner as it
// was (DESIGN.md, "Bounded kernel"); +Inf bars nothing.
func (c *ctx) run(sc *dpScratch, s scorer, bound float64) {
	full := fullMask(c.n)
	c.setBars(sc, s, bound)
	for j, ti := range c.tables {
		bit := uint64(1) << uint(j)
		for ai, ac := range ti.accesses {
			e := entry{score: leafScore(ac), access: uint16(ai), table: uint8(j)}
			if k := cell(bit, c.slotOf(ac.node.OutOrder)); sc.admits(k, e.score) {
				c.keep(sc, k, e)
			}
		}
	}
	for size := 2; size <= c.n; size++ {
		// Gosper's hack: the masks of popcount size in ascending order. A
		// mask whose cells admit nothing is not expanded: no score is
		// negative (setBars).
		for m := uint64(1)<<uint(size) - 1; m <= full; {
			if k := cell(m, 0); !(sc.bar[k] < 0 && sc.bar[k|1] < 0) {
				c.expand(sc, m, s)
			}
			r := m + m&-m
			m = r | (m^r)>>2>>uint(bits.TrailingZeros64(m))
		}
	}
}

// singlePair is the frontier of two single-entry cells.
var singlePair = []topPair{{}}

// expand fills mask's cells from the finalized smaller ranks, writing
// nothing else. Sizes are the subset's, not the order's: the output is
// pages(mask) and the left input is rest's, so every entry of both left
// slots is one join input, and a join is priced by one card per j, on
// first need. What the method cannot change (sort-merge order) is asked
// once per (mask, j). A score is always (left.score + right.score) + price.
func (c *ctx) expand(sc *dpScratch, mask uint64, s scorer) {
	phase := phaseOfMask(mask)
	methods := c.opts.Methods
	sc.cands = c.candidatesInto(mask, sc.cands[:0])
	kb := cell(mask, 0)
	for _, j := range sc.cands {
		bit := uint64(1) << uint(j)
		rest := mask &^ bit
		merges := c.mergeOrders(j, rest)
		// No price is below reading both inputs (setBars), up to the
		// rounding boundSlack covers.
		least := (sc.floor[rest] + sc.floor[bit]) * (1 - boundSlack)
		var card [cost.BlockNL + 1]float64
		priced := false
		for ls := 0; ls < 2; ls++ {
			lk := cell(rest, ls)
			left := sc.list(lk)
			if len(left) == 0 {
				continue
			}
			for rs := 0; rs < 2; rs++ {
				right := sc.list(cell(bit, rs))
				if len(right) == 0 {
					continue
				}
				// Within one mask every (left entry, right entry, method)
				// is a distinct plan, so the order in which a top-c cell
				// is offered them cannot change what it ends up holding.
				pairs := singlePair
				if sc.pol == keepTopC {
					var probes int
					sc.pairs, probes = frontier(sc.pairs[:0], left, right, sc.depth)
					pairs, sc.probes = sc.pairs, sc.probes+probes*len(methods)
				}
				for _, p := range pairs {
					le, re := &left[p.i], &right[p.k]
					base := le.score + re.score
					for _, m := range methods {
						k := kb | joinSlot(m, merges, ls)
						if !sc.admits(k, base+least) {
							continue // turned away even at the least price
						}
						if !priced {
							c.priceCard(&card, &s, rest, bit, phase)
							priced = true
						}
						score := base + card[m]
						if !sc.admits(k, score) {
							continue // strictly worse
						}
						c.keep(sc, k, entry{score: score, left: uint32(lk*sc.depth + p.i),
							access: re.access, table: uint8(j), op: opJoin | entryOp(m)})
					}
				}
			}
		}
	}
}

// complete lists the plans for the whole query in sc.root: every entry of
// the full subset, each under a root sort where it misses the ORDER BY.
func (c *ctx) complete(sc *dpScratch, s scorer) {
	full := fullMask(c.n)
	for slot := 0; slot < 2; slot++ {
		for _, e := range sc.list(cell(full, slot)) {
			if c.blk.OrderBy != nil && slot == 0 {
				e.score += c.enforcerScore(s, &e)
				e.op |= opSort
			}
			sc.root = append(sc.root, e)
		}
	}
}

// topRoots completes a top-c pass (Algorithm B's inner pass) and returns
// its best topC plans, ascending. They live in the scratch.
func (c *ctx) topRoots(sc *dpScratch, s scorer, topC int) []entry {
	c.complete(sc, s)
	// better is a strict total order on completed plans (a list holds no
	// two equal signatures, and a root sort sets the slots apart), so any
	// sort leaves the same list.
	by := sigOrder{c, sc}
	slices.SortFunc(sc.root, func(a, b entry) int {
		switch {
		case by.better(&a, &b):
			return -1
		case by.better(&b, &a):
			return 1
		}
		return 0
	})
	return sc.root[:min(len(sc.root), topC)]
}

// nodes is the size of root entry e's plan: its joins, its leaves, and the
// root sort it may carry.
func (c *ctx) nodes(e *entry) int {
	if e.op.sorted() {
		return 2 * c.n
	}
	return 2*c.n - 1
}

// tree builds root entry e's plan into sc.trees, where it lives until sc is
// released, its leaves sharing the context's scan nodes' predicates: every
// plan a pass returns is built so, and cloned before it leaves in a Result.
func (c *ctx) tree(sc *dpScratch, s scorer, e *entry) *plan.Node {
	size := c.nodes(e)
	return c.buildInto(sc.block(size, sc.depth*size), sc, s, e)
}

// buildInto builds root entry e's plan into nodes, which must hold exactly
// its nodes; the leaves are copies of the context's. The joins lie top down after the root sort, then the leftmost
// leaf, then each join's right leaf in the same order. Output orders are
// set bottom up once every input is in place (joinOrder): a nested-loop
// join carries the order of the nearest order-imposing join below it, or
// else of the leftmost access path.
func (c *ctx) buildInto(nodes []plan.Node, sc *dpScratch, s scorer, e *entry) *plan.Node {
	top := 0
	if e.op.sorted() {
		top = 1
	}
	joins := c.n - 1
	var merges [query.MaxTables]bool
	mask := fullMask(c.n)
	for i := range joins {
		nodes[top+joins+1+i] = *c.scan(e)
		nodes[top+i] = plan.Node{Kind: plan.KindJoin, Method: e.op.method(), Left: &nodes[top+i+1],
			Right: &nodes[top+joins+1+i], OutPages: c.pages(s, mask)}
		mask &^= 1 << e.table
		merges[i] = c.mergeOrders(int(e.table), mask)
		e = &sc.ents[e.left]
	}
	nodes[top+joins] = *c.scan(e)
	for i := joins - 1; i >= 0; i-- {
		n := &nodes[top+i]
		n.OutOrder = c.joinOrder(n.Method, merges[i], n.Left.OutOrder)
	}
	if top == 1 {
		nodes[0] = plan.Node{Kind: plan.KindSort, Child: &nodes[1], OutPages: nodes[1].OutPages, OutOrder: c.required}
	}
	return &nodes[0]
}

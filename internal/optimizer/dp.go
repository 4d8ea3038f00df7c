package optimizer

import (
	"math/bits"

	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/plan"
	"lecopt/internal/pool"
)

// scorer costs a join or sort in one execution phase: in expectation under
// that phase's memory law. With a single repeated law it is Algorithm C's
// static case; with Markov phase laws it is the Section 3.5 dynamic case.
// Expectation distributes over the plan's phase-cost sum, which is exactly
// why the DP argument of Theorem 3.3 carries over (Theorem 3.4). The
// classical optimizer (LSC, Theorem 2.1) is the same scorer over a point
// law — 0 + 1·cost is cost, bit for bit (pointScorer) — so the dynamic
// programs call one concrete type.
type scorer struct {
	laws  []dist.Dist
	model cost.Model
}

// pointScorer costs at one fixed memory value.
func pointScorer(mem float64, model cost.Model) scorer {
	return scorer{[]dist.Dist{dist.Point(mem)}, model}
}

func (s scorer) law(phase int) *dist.Dist {
	if phase >= len(s.laws) {
		phase = len(s.laws) - 1
	}
	return &s.laws[phase]
}

func (s scorer) joinScore(m cost.JoinMethod, outer, inner float64, phase int) float64 {
	return cost.ExpectJoinIO(s.model, m, outer, inner, s.law(phase))
}

func (s scorer) sortScore(pages float64, phase int) float64 {
	return cost.ExpectSortIO(pages, s.law(phase))
}

// staticLaws replicates one law across all phases of an n-relation plan.
func staticLaws(law dist.Dist, n int) []dist.Dist {
	k := lastPhase(n) + 1
	laws := make([]dist.Dist, k)
	for i := range laws {
		laws[i] = law
	}
	return laws
}

// entry is one retained subplan at a DP node.
type entry struct {
	node  *plan.Node
	score float64
	pages float64
	order plan.Order
}

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

// leafEntry builds the access-path entry for one access path of a table.
// Materialized access paths (index scans, filtered heap scans) score their
// access cost; an unfiltered heap scan scores 0 — its base read is part of
// the consuming join's formula (see plan.Node.Materialized).
func leafEntry(ti *tableInfo, ac accessCand) entry {
	score := ac.io
	if !ac.node.Materialized() {
		score = 0
	}
	return entry{node: ac.node, score: score, pages: ti.pages, order: ac.order}
}

// leafEntries builds all access-path entries for one table — the
// slice-returning form used by the top-c, distributional and exhaustive
// passes; the single-plan DP iterates leafEntry directly to stay
// allocation-free.
func (c *ctx) leafEntries(ti *tableInfo) []entry {
	out := make([]entry, 0, len(ti.accesses))
	for _, ac := range ti.accesses {
		out = append(out, leafEntry(ti, ac))
	}
	return out
}

// enforcerScore is the cost of the root ORDER BY enforcer over an entry:
// the sort itself, plus the base read when the sort consumes an
// unmaterialized heap scan directly (single-table plans — no join ever
// paid for it).
func enforcerScore(s scorer, e entry, phase int) float64 {
	sc := s.sortScore(e.pages, phase)
	if e.node.Kind == plan.KindScan && !e.node.Materialized() {
		sc += e.node.AccessIO()
	}
	return sc
}

// dpBest is the System R bottom-up dynamic program, keeping the best entry
// per (subset, order-slot). Over a point law it computes the LSC
// left-deep plan (Theorem 2.1); over memory laws it is Algorithm C and
// computes the LEC left-deep plan (Theorems 3.3/3.4).
func (c *ctx) dpBest(s scorer) (Result, error) {
	return c.dpBestW(s, c.opts.Workers)
}

// dpBestW is dpBest with an explicit worker count for the subset
// enumeration (Algorithms A and B pass 1 when their per-bucket fan-out
// already saturates the requested concurrency). All DP state lives in a
// pooled scratch: the table holds entries by value, join nodes come from
// per-worker arenas, and finishRoot deep-copies the winner so nothing in
// the Result outlives the scratch's release.
//
// Parallelism is by rank: every mask of popcount k depends only on masks
// of strictly smaller popcount, so the masks of one rank can be expanded
// concurrently — each expandMask call writes dp[mask] alone and reads only
// finalized smaller ranks. Workers take statically assigned contiguous
// chunks, so the result is byte-identical to the serial pass for every
// worker count.
func (c *ctx) dpBestW(s scorer, workers int) (Result, error) {
	full := fullMask(c.n)
	sc := getScratch()
	defer sc.release()
	dp := sc.table(int(full) + 1)

	for j := 0; j < c.n; j++ {
		ti := c.tables[j]
		for _, ac := range ti.accesses {
			c.keepSlot(&dp[1<<uint(j)], leafEntry(ti, ac))
		}
	}

	for size := 2; size <= c.n; size++ {
		ms := sc.masks[:0]
		for mask := uint64(1); mask <= full; mask++ {
			if bits.OnesCount64(mask) == size {
				ms = append(ms, mask)
			}
		}
		sc.masks = ms
		w := pool.Workers(workers, len(ms))
		if w > 1 && len(ms) >= dpParallelMinMasks {
			chunk := (len(ms) + w - 1) / w
			nchunks := (len(ms) + chunk - 1) / chunk
			sc.ensureWorkers(nchunks)
			err := pool.Run(nchunks, nchunks, func(ci int) error {
				lo, hi := ci*chunk, (ci+1)*chunk
				if hi > len(ms) {
					hi = len(ms)
				}
				wk := &sc.workers[ci]
				for _, mask := range ms[lo:hi] {
					c.expandMask(dp, mask, s, wk)
				}
				return nil
			})
			if err != nil {
				return Result{}, err
			}
		} else {
			sc.ensureWorkers(1)
			wk := &sc.workers[0]
			for _, mask := range ms {
				c.expandMask(dp, mask, s, wk)
			}
		}
	}
	return c.finishRoot(&dp[full], s)
}

// expandMask computes dp[mask] from the finalized smaller-rank slots. It
// writes only dp[mask], which is what makes rank-order parallel
// enumeration race-free and byte-identical to the serial pass. Everything
// the join method cannot change — the selectivity product, whether a
// sort-merge would satisfy the ORDER BY, the output size — is computed
// outside the method loop.
func (c *ctx) expandMask(dp []dpSlot, mask uint64, s scorer, w *dpWorker) {
	phase := phaseOfMask(mask)
	w.cands = c.candidatesInto(mask, w.cands[:0])
	sl := &dp[mask]
	for _, j := range w.cands {
		bit := uint64(1) << uint(j)
		rest := mask &^ bit
		sigma := c.sigmaBetween(j, rest)
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
				outPages := c.joinOutPages(mask, c.clampPages(left.pages*right.pages*sigma))
				for _, m := range c.opts.Methods {
					score := left.score + right.score + s.joinScore(m, left.pages, right.pages, phase)
					order, slot := c.joinOutput(m, merges, left.order, ls)
					if sl.ok[slot] && score > sl.e[slot].score {
						continue // strictly worse: skip building the node
					}
					node := w.arena.newJoin(m, left.node, right.node, outPages, order)
					if sl.ok[slot] && !better(score, node, sl.e[slot].score, sl.e[slot].node) {
						w.arena.undo()
						continue
					}
					sl.e[slot] = entry{node: node, score: score, pages: outPages, order: order}
					sl.ok[slot] = true
				}
			}
		}
	}
}

// keepSlot installs e into its order slot when it beats the incumbent.
func (c *ctx) keepSlot(sl *dpSlot, e entry) {
	slot := c.slotOf(e.order)
	if sl.ok[slot] && !better(e.score, e.node, sl.e[slot].score, sl.e[slot].node) {
		return
	}
	sl.e[slot] = e
	sl.ok[slot] = true
}

// finishRoot applies the ORDER BY enforcer where needed and returns the
// cheapest completed plan.
func (c *ctx) finishRoot(sl *dpSlot, s scorer) (Result, error) {
	var best entry
	have := false
	phase := lastPhase(c.n)
	for slot := 0; slot < 2; slot++ {
		if !sl.ok[slot] {
			continue
		}
		cand := sl.e[slot]
		if c.blk.OrderBy != nil && slot == 0 {
			cand.score += enforcerScore(s, sl.e[slot], phase)
			cand.node = plan.NewSort(cand.node, c.required)
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
	// The winning tree references arena-owned join nodes that are recycled
	// when the scratch is released; deep-copy it so the Result owns its plan.
	return Result{Plan: best.node.Clone(), EC: best.score, Candidates: 1}, nil
}

package optimizer

import (
	"math"
	"sort"

	"lecopt/internal/bucketing"
	"lecopt/internal/catalog"
	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/query"
)

// RefineStats reports the work done by the coarse-then-refine strategy.
type RefineStats struct {
	// Rounds is the number of optimizations performed.
	Rounds int
	// BucketsPerRound records the law size used in each round.
	BucketsPerRound []int
	// Converged reports whether the plan stabilized before reaching the
	// full-resolution law.
	Converged bool
}

// AlgorithmCRefined implements Section 3.7's coarse-then-refine strategy:
// "We can start with a coarse bucketing strategy to do the pruning, and
// then refine the buckets as necessary." Rounds coarsen the law along a
// growing, importance-ordered prefix of the plan space's LEVEL-SET cuts
// (nested-loop cliffs first — they carry factor-|A| cost jumps — then the
// √ and ∛ thresholds of sort-merge and grace hash, then sort thresholds),
// doubling the cut budget per round. Refinement stops when the chosen
// plan AND its expected-cost estimate are stable for `stable` consecutive
// rounds (the §3.7 "degree of accuracy" criterion), or falls back to the
// full-resolution law, which is exact by Theorem 3.3.
//
// Because optimization cost is linear in the bucket count (Theorem 3.2's
// αb), stopping at b' ≪ b saves a proportional amount of work; the final
// returned EC is always re-evaluated under the FULL law, so the score is
// exact even when the search used coarse laws.
func AlgorithmCRefined(cat *catalog.Catalog, blk *query.Block, opts Options, mem dist.Dist, startBuckets, stable int) (Result, RefineStats, error) {
	if startBuckets < 1 {
		startBuckets = 1
	}
	if stable < 1 {
		stable = 1
	}
	c, err := prepare(cat, blk, opts)
	if err != nil {
		return Result{}, RefineStats{}, err
	}
	cuts := refinementCuts(c, mem)
	c.release()
	const ecTol = 0.01
	var stats RefineStats
	var lastSig string
	var lastEC float64
	var streak int
	var res Result
	nCuts := startBuckets - 1
	for {
		var coarse dist.Dist
		if nCuts >= len(cuts) && mem.Len() > 0 {
			coarse = mem // all cuts used: go straight to full resolution
		} else {
			coarse, err = coarsenByCuts(mem, cuts[:min(nCuts, len(cuts))])
			if err != nil {
				return Result{}, stats, err
			}
		}
		r, err := AlgorithmC(cat, blk, opts, coarse)
		if err != nil {
			return Result{}, stats, err
		}
		stats.Rounds++
		stats.BucketsPerRound = append(stats.BucketsPerRound, coarse.Len())
		sig := r.Plan.Signature()
		ecStable := lastEC > 0 && relDiff(r.EC, lastEC) <= ecTol
		if sig == lastSig && ecStable {
			streak++
		} else {
			streak = 1
		}
		lastSig, lastEC = sig, r.EC
		res = r
		if coarse.Len() >= mem.Len() {
			break // full resolution reached: exact by Theorem 3.3
		}
		if streak >= stable {
			stats.Converged = true
			break
		}
		if nCuts < 1 {
			nCuts = 1
		}
		nCuts *= 2
	}
	// Exact score under the full law, regardless of which round won.
	ec, err := ExpectedCostModel(opts.CostModel, res.Plan, []dist.Dist{mem})
	if err != nil {
		return Result{}, stats, err
	}
	res.EC = ec
	return res, stats, nil
}

// refinementCuts builds the importance-ordered level-set cuts for every
// base-table pair the optimizer might join, restricted to the law's range.
// Ordering encodes how catastrophic a misclassification is: page
// nested-loop cliffs first (cost jumps by a factor of the outer size),
// then the √ thresholds of sort-merge and grace hash, then the ∛
// thresholds, then sort thresholds of the filtered table sizes when the
// query needs an enforcer.
func refinementCuts(c *ctx, mem dist.Dist) []float64 {
	lo, hi := mem.Min(), mem.Max()
	type pair struct{ small, large float64 }
	var pairs []pair
	for i := 0; i < c.n; i++ {
		for j := i + 1; j < c.n; j++ {
			a, b := c.tables[i].pages, c.tables[j].pages
			if a > b {
				a, b = b, a
			}
			pairs = append(pairs, pair{small: a, large: b})
		}
	}
	var out []float64
	seen := map[float64]bool{}
	add := func(v float64) {
		if v > lo && v <= hi && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	up := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	has := func(m cost.JoinMethod) bool {
		for _, mm := range c.opts.Methods {
			if mm == m {
				return true
			}
		}
		return false
	}
	// Group 1: small+2 cliffs, biggest smaller-side first. Page
	// nested-loop's inner stops being resident below this cut, and grace
	// hash's one-pass regime (in-memory build, cost A+B) ends there too —
	// cost.JoinBreakpoints lists small+2 for both methods. Either way the
	// cost jumps discontinuously by a factor of the input size, so
	// misclassifying law mass across this cut is the costliest bucketing
	// error and it refines first.
	if has(cost.PageNL) || has(cost.GraceHash) {
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].small > pairs[j].small })
		for _, p := range pairs {
			add(p.small + 2)
		}
	}
	// Group 2: √ thresholds (sort-merge on the larger, grace hash on the
	// smaller), biggest pairs first.
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].large > pairs[j].large })
	for _, p := range pairs {
		if has(cost.SortMerge) {
			add(up(math.Sqrt(p.large)))
		}
		if has(cost.GraceHash) {
			add(up(math.Sqrt(p.small)))
		}
	}
	// Group 3: ∛ thresholds.
	for _, p := range pairs {
		if has(cost.SortMerge) {
			add(up(math.Cbrt(p.large)))
		}
		if has(cost.GraceHash) {
			add(up(math.Cbrt(p.small)))
		}
	}
	// Group 4: sort thresholds of filtered table sizes (enforcer sorts).
	if c.blk.OrderBy != nil {
		for _, ti := range c.tables {
			for _, b := range cost.SortBreakpoints(ti.pages) {
				add(b)
			}
		}
	}
	return out
}

// coarsenByCuts partitions the law along the given importance-ordered cut
// prefix (cuts must be re-sorted ascending for cell assignment).
func coarsenByCuts(mem dist.Dist, cuts []float64) (dist.Dist, error) {
	sorted := append([]float64(nil), cuts...)
	sort.Float64s(sorted)
	return bucketing.CoarsenByCuts(mem, sorted)
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	if m <= 0 {
		return 0
	}
	return d / m
}

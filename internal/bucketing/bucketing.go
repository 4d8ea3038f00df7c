// Package bucketing implements the parameter-space partitioning strategies
// of Section 3.7 of Chu, Halpern and Seshadri (PODS 1999). The complexity
// of every LEC algorithm is linear (or worse) in the number of buckets, so
// the choice of buckets trades optimization cost against the fidelity of
// the expected-cost estimates.
//
// Three strategies are provided:
//
//   - Uniform: equal-width buckets over the parameter range — the obvious
//     baseline.
//   - Quantile: equal-probability buckets — adapts to the law's shape but
//     ignores the cost formulas.
//   - LevelSet: bucket boundaries at the cost formulas' discontinuities
//     (√L, ∛L, S+2, ...), the paper's key observation: "if we are
//     considering a sort-merge join for fixed relation sizes, we need deal
//     with only three buckets for memory sizes."
//
// Each strategy converts a fine-grained "true" law into a coarse law with
// at most b buckets; experiment E14 measures how plan quality degrades
// with b under each strategy.
package bucketing

import (
	"errors"
	"sort"

	"lecopt/internal/cost"
	"lecopt/internal/dist"
)

// Errors.
var (
	errBadBuckets = errors.New("bucketing: bucket count must be positive")
)

// Strategy names a bucketing approach.
type Strategy uint8

// Strategies.
const (
	Uniform Strategy = iota
	Quantile
	LevelSet
)

func (s Strategy) String() string {
	switch s {
	case Uniform:
		return "uniform"
	case Quantile:
		return "quantile"
	case LevelSet:
		return "level-set"
	default:
		return "unknown"
	}
}

// Coarsen reduces a fine-grained law to at most b buckets using the given
// strategy. boundaries is consulted only by LevelSet (see Boundaries).
// Mass is preserved exactly; each output bucket's representative is the
// conditional mean of the absorbed fine buckets, so the law's mean is
// preserved too.
func Coarsen(law dist.Dist, b int, strategy Strategy, boundaries []float64) (dist.Dist, error) {
	if b <= 0 {
		return dist.Dist{}, errBadBuckets
	}
	if law.Len() <= b {
		return law, nil
	}
	switch strategy {
	case Uniform:
		return CoarsenByCuts(law, uniformCuts(law.Min(), law.Max(), b))
	case Quantile:
		return law.Rebucket(b)
	case LevelSet:
		cuts := selectCuts(boundaries, law.Min(), law.Max(), b-1)
		return CoarsenByCuts(law, cuts)
	default:
		return dist.Dist{}, errBadBuckets
	}
}

// uniformCuts returns b-1 interior cut points splitting [lo, hi] into b
// equal-width cells.
func uniformCuts(lo, hi float64, b int) []float64 {
	if b <= 1 || hi <= lo {
		return nil
	}
	cuts := make([]float64, 0, b-1)
	w := (hi - lo) / float64(b)
	for i := 1; i < b; i++ {
		cuts = append(cuts, lo+float64(i)*w)
	}
	return cuts
}

// selectCuts picks at most maxCuts of the given boundaries that fall
// strictly inside (lo, hi], preferring the ones nearest the middle of the
// probability range — in practice the √L and S+2 breakpoints dominate, and
// they are passed first by Boundaries.
func selectCuts(boundaries []float64, lo, hi float64, maxCuts int) []float64 {
	var inside []float64
	seen := map[float64]bool{}
	for _, c := range boundaries {
		if c > lo && c <= hi && !seen[c] {
			seen[c] = true
			inside = append(inside, c)
		}
	}
	if len(inside) > maxCuts {
		inside = inside[:maxCuts]
	}
	sort.Float64s(inside)
	return inside
}

// CoarsenByCuts merges fine buckets into the cells delimited by the sorted
// cut points (cell i is (cuts[i-1], cuts[i]]); empty cells disappear.
func CoarsenByCuts(law dist.Dist, cuts []float64) (dist.Dist, error) {
	nCells := len(cuts) + 1
	mass := make([]float64, nCells)
	moment := make([]float64, nCells)
	for i := 0; i < law.Len(); i++ {
		v, p := law.Value(i), law.Prob(i)
		cell := sort.SearchFloat64s(cuts, v)
		// SearchFloat64s returns the first cut ≥ v; v == cut belongs to
		// the lower cell (boundaries are "(lo, hi]").
		if cell < len(cuts) && v == cuts[cell] {
			// belongs to cell `cell` (lower side) — already correct.
			_ = cell
		}
		mass[cell] += p
		moment[cell] += v * p
	}
	var vals, probs []float64
	for i := 0; i < nCells; i++ {
		if mass[i] <= 0 {
			continue
		}
		vals = append(vals, moment[i]/mass[i])
		probs = append(probs, mass[i])
	}
	return dist.New(vals, probs)
}

// Boundaries collects the memory-dimension level-set boundaries of every
// join the optimizer might cost for a query: for each pair of estimated
// input sizes and each join method, the formula's breakpoints, plus the
// sort breakpoints of candidate result sizes. Earlier entries are
// considered more important by selectCuts, so callers should list the
// joins most likely to dominate first (e.g. the largest relations).
func Boundaries(methods []cost.JoinMethod, sizePairs [][2]float64, sortSizes []float64) []float64 {
	var out []float64
	for _, pair := range sizePairs {
		for _, m := range methods {
			out = append(out, cost.JoinBreakpoints(m, pair[0], pair[1], 4)...)
		}
	}
	for _, s := range sortSizes {
		out = append(out, cost.SortBreakpoints(s)...)
	}
	return out
}

package cost

import (
	"math"

	"lecopt/internal/dist"
)

// ExpectJoinIO returns E[JoinIOModel(model, method, outer, inner, M)] for M
// distributed as mem — bit for bit what
//
//	mem.ExpectF(func(m float64) float64 { return JoinIOModel(model, method, outer, inner, m) })
//
// returns: the same buckets in the same order, e += Prob(i)·cost(i), so the
// last ulp of every expected cost (and with it every exact tie the plan
// comparator decides) stays where it was. What moves out of the bucket loop
// is everything that does not depend on memory: the pivot, |A|+|B|, the S+2
// fit threshold and √R are computed once per join, and a bucket then picks
// its 1/2/4/6-pass multiple by comparisons alone (AboveCbrt). Under a Point
// law the result is 0 + 1·cost = cost exactly, so the classical optimizer
// is this function too.
//
// The law is read-only and taken by pointer (and read through Dist.At): the
// call sits in the dynamic programs' innermost loop, where copying the
// 48-byte Dist per call and per accessor cost as much as the arithmetic.
//
// Two formulas keep the per-bucket call: BlockNL's ⌈|A|/(M−2)⌉ has a level
// set per block count, not four, and ModelEngine grace hash is
// engineGraceIO's integer recursion, which has no roots to hoist.
func ExpectJoinIO(model Model, method JoinMethod, outer, inner float64, mem *dist.Dist) float64 {
	if !(outer > 0 && inner > 0) {
		return 0
	}
	small, sum := min(outer, inner), outer+inner
	switch {
	case method == SortMerge:
		return expectPasses(mem, max(outer, inner), sum, math.NaN(), 0)
	case method == GraceHash && model == ModelPaper:
		return expectPasses(mem, small, sum, small+2, sum)
	case method == PageNL:
		fit, thrash := small+2, outer+outer*inner
		e := 0.0
		for i, n := 0, mem.Len(); i < n; i++ {
			m, p := mem.At(i)
			io := thrash
			if m >= fit {
				io = sum
			}
			e += p * io
		}
		return e
	}
	return mem.ExpectF(func(m float64) float64 { return JoinIOModel(model, method, outer, inner, m) })
}

// ExpectSortIO returns E[SortIO(r, M)] for M distributed as mem, bit for
// bit mem.ExpectF of the formula (see ExpectJoinIO).
func ExpectSortIO(r float64, mem *dist.Dist) float64 {
	if !(r > 0) {
		return 0
	}
	return expectPasses(mem, r, r, r, 0)
}

// expectPasses is the shared bucket loop of the three-case formulas:
// E[c(M)] with c = fitIO where M ≥ fit (a NaN fit never holds: sort-merge
// has no such regime) and passMultiplier(r, M)·pages below it.
func expectPasses(mem *dist.Dist, r, pages, fit, fitIO float64) float64 {
	sqrtR := math.Sqrt(r)
	e := 0.0
	for i, n := 0, mem.Len(); i < n; i++ {
		m, p := mem.At(i)
		var io float64
		switch {
		case m >= fit:
			io = fitIO
		case m > sqrtR:
			io = 2 * pages
		case AboveCbrt(m, r):
			io = 4 * pages
		default:
			io = 6 * pages
		}
		e += p * io
	}
	return e
}

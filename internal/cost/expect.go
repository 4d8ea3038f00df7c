package cost

import (
	"math"

	"lecopt/internal/dist"
)

// JoinCard prices one join for every method the caller searches: it sets
// card[m], for each m in methods, to E[JoinIOModel(model, m, outer, inner, M)]
// for M distributed as mem — bit for bit what
//
//	mem.ExpectF(func(v float64) float64 { return JoinIOModel(model, m, outer, inner, v) })
//
// returns — and every other entry to 0. Each method keeps its own
// accumulator, e += Prob(i)·cost(i) over the same buckets in the same
// order, so the last ulp of every expected cost (and with it every exact tie
// the plan comparator decides) stays where it was. What moves out of the
// bucket loop is everything that depends on the sizes alone: |A|+|B|, both
// pivots and their square roots, the S+2 fit threshold and the page
// nested-loop rescan are computed once per card, and one pass over the
// buckets then classifies each bucket once per formula by comparisons alone
// (AboveCbrt). Under a Point law each entry is 0 + 1·cost = cost exactly,
// so the classical optimizer prices with this function too.
//
// The law is read-only and taken by pointer (and read through Dist.At), and
// the card is filled in place: the call sits in the dynamic programs'
// innermost loop, where copying the 48-byte Dist per call and per accessor
// cost as much as the arithmetic, and copying a returned card stalls on
// its four separate stores.
//
// Two formulas keep their per-bucket call, each in a sweep of its own:
// BlockNL's ⌈|A|/(M−2)⌉ has a level set per block count, not four, and
// ModelEngine grace hash is engineGraceIO's integer recursion, which has no
// roots to hoist.
func JoinCard(card *[BlockNL + 1]float64, model Model, methods []JoinMethod, outer, inner float64, mem *dist.Dist) {
	if !(outer > 0 && inner > 0) {
		*card = [BlockNL + 1]float64{}
		return
	}
	var want uint
	for _, m := range methods {
		want |= 1 << m
	}
	sm, nl, bnl := want&(1<<SortMerge) != 0, want&(1<<PageNL) != 0, want&(1<<BlockNL) != 0
	gh := want&(1<<GraceHash) != 0 && model == ModelPaper
	ghEngine := want&(1<<GraceHash) != 0 && model == ModelEngine
	small, big, sum := min(outer, inner), max(outer, inner), outer+inner
	sqrtSmall, sqrtBig, fit, thrash := math.Sqrt(small), math.Sqrt(big), small+2, outer+outer*inner
	var eSM, eGH, eNL, eBNL float64
	n := mem.Len()
	for i := 0; i < n; i++ {
		m, p := mem.At(i)
		if sm {
			eSM += p * (passes(m, sqrtBig, big) * sum)
		}
		if gh {
			io := sum
			if !(m >= fit) {
				io = passes(m, sqrtSmall, small) * sum
			}
			eGH += p * io
		}
		if nl {
			io := thrash
			if m >= fit {
				io = sum
			}
			eNL += p * io
		}
	}
	// The formulas that keep a per-bucket call sweep on their own: a call on
	// every bucket of the sweep above would spill its accumulators around it.
	if ghEngine {
		for i := 0; i < n; i++ {
			m, p := mem.At(i)
			eGH += p * JoinIOModel(model, GraceHash, outer, inner, m)
		}
	}
	if bnl {
		for i := 0; i < n; i++ {
			m, p := mem.At(i)
			eBNL += p * JoinIOModel(model, BlockNL, outer, inner, m)
		}
	}
	card[SortMerge], card[GraceHash], card[PageNL], card[BlockNL] = eSM, eGH, eNL, eBNL
}

// ExpectSortIO returns E[SortIO(r, M)] for M distributed as mem, bit for
// bit mem.ExpectF of the formula (see JoinCard).
func ExpectSortIO(r float64, mem *dist.Dist) float64 {
	if !(r > 0) {
		return 0
	}
	sqrtR, e := math.Sqrt(r), 0.0
	for i, n := 0, mem.Len(); i < n; i++ {
		m, p := mem.At(i)
		io := 0.0
		if !(m >= r) {
			io = passes(m, sqrtR, r) * r
		}
		e += p * io
	}
	return e
}

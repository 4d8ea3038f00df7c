// Package expcost computes expected join costs over parameter
// distributions — the workhorse of Algorithms C and D in Chu, Halpern and
// Seshadri (PODS 1999).
//
// Two evaluation paths are provided. The generic path enumerates the full
// joint support (the b_M·b_|A|·b_|B| triple loop the paper describes for
// Algorithm D). The linear path implements the O(b_M + b_|A| + b_|B|)
// algorithms of Sections 3.6.1 (sort-merge) and 3.6.2 (nested-loop), which
// exploit the cost formulas' structure: the expectation splits on
// {|A| ≤ |B|} and within each half reduces to prefix/suffix partial
// expectations plus monotone tail probabilities of M, all computable in one
// synchronized sweep over the sorted supports.
//
// The package also computes the result-size distribution of a join with
// rebucketing (Section 3.6.3).
package expcost

import (
	"math"

	"lecopt/internal/cost"
	"lecopt/internal/dist"
)

// JoinECNaive returns E[C(method, |A|, |B|, M)] by full joint enumeration:
// O(b_M · b_A · b_B) cost-formula evaluations.
func JoinECNaive(method cost.JoinMethod, a, b, mem dist.Dist) float64 {
	return dist.Expect3(a, b, mem, func(av, bv, mv float64) float64 {
		return cost.JoinIOModel(cost.ModelPaper, method, av, bv, mv)
	})
}

// JoinECLinear returns E[C(method, |A|, |B|, M)] using the linear-time
// specializations. ok is false when the method has no fast path (then use
// JoinECNaive).
func JoinECLinear(method cost.JoinMethod, a, b, mem dist.Dist) (ec float64, ok bool) {
	switch method {
	case cost.SortMerge:
		return sortMergeEC(a, b, mem), true
	case cost.GraceHash:
		return graceHashEC(a, b, mem), true
	case cost.PageNL:
		return nestedLoopEC(a, b, mem), true
	default:
		return 0, false
	}
}

// JoinECModel returns the expected join cost under the selected cost
// model, preferring the linear path and falling back to full joint
// enumeration for a method without one. The linear-time sweeps hard-code
// the paper's three-case pass structure, so the one model/method pair whose
// formula differs — ModelEngine grace hash, whose recursion charge is not a
// flat multiplier of |A|+|B| — also enumerates, over cost.JoinIOModel;
// every other pair keeps the paper path.
func JoinECModel(model cost.Model, method cost.JoinMethod, a, b, mem dist.Dist) float64 {
	if model == cost.ModelEngine && method == cost.GraceHash {
		return dist.Expect3(a, b, mem, func(av, bv, mv float64) float64 {
			return cost.JoinIOModel(model, method, av, bv, mv)
		})
	}
	if ec, ok := JoinECLinear(method, a, b, mem); ok {
		return ec
	}
	return JoinECNaive(method, a, b, mem)
}

// SortEC returns E[SortIO(R, M)] for independent size and memory laws.
func SortEC(r, mem dist.Dist) float64 {
	return dist.Expect2(r, mem, cost.SortIO)
}

// --- Section 3.6.1: sort-merge -----------------------------------------

// sortMergeEC implements the split
//
//	EC(SM) = EC(SM : |A| ≤ |B|)·Pr(|A| ≤ |B|) + EC(SM : |A| > |B|)·Pr(|A| > |B|)
//
// with each half computed in one sweep. For the first half, conditioning
// on |B| = b (so L = b):
//
//	E[C·1{|A| ≤ b}] = m(b) · ( PE_A(≤ b) + b·P_A(≤ b) )
//
// where m(b) = 2·Pr(M > √b) + 4·Pr(∛b < M ≤ √b) + 6·Pr(M ≤ ∛b) is the
// expected pass multiplier, PE is the partial expectation E[X·1{...}] and
// P the corresponding probability. (The paper's F_b notation folds PE and
// P together; partial expectations make the identity exact.) Because the
// supports are sorted, the P/PE prefix tables and the monotone thresholds
// √b, ∛b advance with two-pointer cursors, giving O(b_M + b_A + b_B).
func sortMergeEC(a, b, mem dist.Dist) float64 {
	return pivotSweep(a, b, mem)
}

// graceHashEC: same sweep structure but the pivot is the SMALLER relation,
// so the roles of the halves flip: conditioning on the half {|A| ≤ |B|},
// the pivot is |A| and we sweep over Val(|A|) aggregating B. On top of the
// 2/4/6 pass bands there is the one-pass band M ≥ s+2 (build side fits in
// memory). Since s+2 > √s, that band is carved out of the 2-pass mass: the
// expected multiplier is m(s) − Pr(M ≥ s+2), because the one-pass region
// pays 1·(|A|+|B|) where the tail cursor charged 2.
func graceHashEC(a, b, mem dist.Dist) float64 {
	// In the half |A| ≤ |B| the smaller relation is A: pivot on a.
	// E[C·1{|B| ≥ a} | A=a] = (m(a) − Pr(M ≥ a+2))·( PE_B(≥a) + a·P_B(≥a) ).
	total := 0.0
	{
		cur := newSuffixCursor(b)
		mq := newTailCursor(mem)
		fc := newAtLeastCursor(mem)
		for i, n := 0, a.Len(); i < n; i++ {
			av, pa := a.At(i)
			pB, peB := cur.atLeast(av)
			if pB == 0 {
				continue
			}
			m := mq.multiplier(av) - fc.atLeast(av+2)
			total += pa * m * (peB + av*pB)
		}
	}
	// In the half |A| > |B| the smaller relation is B: pivot on b, with a
	// strict condition |A| > b.
	{
		cur := newSuffixCursor(a)
		mq := newTailCursor(mem)
		fc := newAtLeastCursor(mem)
		for j, n := 0, b.Len(); j < n; j++ {
			bv, pb := b.At(j)
			pA, peA := cur.greater(bv)
			if pA == 0 {
				continue
			}
			m := mq.multiplier(bv) - fc.atLeast(bv+2)
			total += pb * m * (peA + bv*pA)
		}
	}
	return total
}

// pivotSweep computes the two-half sum when the formula's pivot is the
// LARGER relation (sort-merge): in half {|A| ≤ |B|} the pivot is |B|; in
// half {|A| > |B|} the pivot is |A| (strictly greater).
func pivotSweep(a, b, mem dist.Dist) float64 {
	total := 0.0
	na, nb := a.Len(), b.Len()
	{
		// pA, peA are Pr(|A| ≤ bv) and E[|A|·1{|A| ≤ bv}]: the prefix sums
		// of Dist.CumTables, accumulated as the cursor advances.
		pA, peA := 0.0, 0.0
		mq := newTailCursor(mem)
		ai := 0
		for j := 0; j < nb; j++ {
			bv, pb := b.At(j)
			for ; ai < na; ai++ {
				av, pa := a.At(ai)
				if !(av <= bv) {
					break
				}
				pA += pa
				peA += av * pa
			}
			if ai == 0 {
				continue
			}
			m := mq.multiplier(bv)
			total += pb * m * (peA + bv*pA)
		}
	}
	{
		pB, peB := 0.0, 0.0
		mq := newTailCursor(mem)
		bi := 0
		for i := 0; i < na; i++ {
			av, pa := a.At(i)
			for ; bi < nb; bi++ {
				bv, pb := b.At(bi)
				if !(bv < av) {
					break
				}
				pB += pb
				peB += bv * pb
			}
			if bi == 0 {
				continue
			}
			m := mq.multiplier(av)
			total += pa * m * (peB + av*pB)
		}
	}
	return total
}

// tailCursor computes the expected pass multiplier
// m(r) = 2·Pr(M > √r) + 4·Pr(∛r < M ≤ √r) + 6·Pr(M ≤ ∛r)
// for a monotone ascending sequence of pivot sizes r, advancing two
// pointers over M's sorted support (√r and ∛r are increasing in r).
type tailCursor struct {
	m          dist.Dist
	iSqrt      int     // first index with value > √r for the last query
	iCbrt      int     // first index with value > ∛r
	cumAtSqrt  float64 // Pr(M ≤ √r)
	cumAtCbrt  float64 // Pr(M ≤ ∛r)
	lastPivot  float64
	everCalled bool
}

func newTailCursor(m dist.Dist) *tailCursor {
	return &tailCursor{m: m}
}

func (c *tailCursor) multiplier(r float64) float64 {
	if c.everCalled && r < c.lastPivot {
		// Defensive: callers sweep ascending; restart if violated.
		c.iSqrt, c.iCbrt, c.cumAtSqrt, c.cumAtCbrt = 0, 0, 0, 0
	}
	c.lastPivot, c.everCalled = r, true
	sq := math.Sqrt(r)
	for n := c.m.Len(); c.iSqrt < n; c.iSqrt++ {
		v, p := c.m.At(c.iSqrt)
		if !(v <= sq) {
			break
		}
		c.cumAtSqrt += p
	}
	// v > ∛r without the root: law values are finite, so !(v <= ∛r) is
	// v > ∛r, which cost.AboveCbrt decides bit for bit by a multiply.
	for n := c.m.Len(); c.iCbrt < n; c.iCbrt++ {
		v, p := c.m.At(c.iCbrt)
		if cost.AboveCbrt(v, r) {
			break
		}
		c.cumAtCbrt += p
	}
	pHigh := 1 - c.cumAtSqrt          // Pr(M > √r)
	pMid := c.cumAtSqrt - c.cumAtCbrt // Pr(∛r < M ≤ √r)
	pLow := c.cumAtCbrt               // Pr(M ≤ ∛r)
	return 2*pHigh + 4*pMid + 6*pLow
}

// suffixCursor yields suffix probability and partial expectation
// (Pr[X ≥ t], E[X·1{X ≥ t}]) — and strict variants — for ascending
// thresholds t, advancing one pointer.
type suffixCursor struct {
	d       dist.Dist
	i       int     // first index not yet excluded from the suffix
	exclP   float64 // Pr(X < current front)
	exclPE  float64 // E[X·1{X < front}]
	totalP  float64
	totalPE float64
}

func newSuffixCursor(d dist.Dist) *suffixCursor {
	tp, tpe := 0.0, 0.0
	for i, n := 0, d.Len(); i < n; i++ {
		v, p := d.At(i)
		tp += p
		tpe += v * p
	}
	return &suffixCursor{d: d, totalP: tp, totalPE: tpe}
}

// atLeast returns (Pr[X ≥ t], E[X·1{X ≥ t}]).
func (c *suffixCursor) atLeast(t float64) (p, pe float64) {
	for n := c.d.Len(); c.i < n; c.i++ {
		v, p := c.d.At(c.i)
		if !(v < t) {
			break
		}
		c.exclP += p
		c.exclPE += v * p
	}
	return c.totalP - c.exclP, c.totalPE - c.exclPE
}

// greater returns (Pr[X > t], E[X·1{X > t}]).
func (c *suffixCursor) greater(t float64) (p, pe float64) {
	for n := c.d.Len(); c.i < n; c.i++ {
		v, p := c.d.At(c.i)
		if !(v <= t) {
			break
		}
		c.exclP += p
		c.exclPE += v * p
	}
	return c.totalP - c.exclP, c.totalPE - c.exclPE
}

// --- Section 3.6.2: page nested-loop ------------------------------------

// nestedLoopEC: C(NL) = |A|+|B| if M ≥ S+2 else |A| + |A|·|B|, S = min.
// Half {|A| ≤ |B|} pivots on a (S = a):
//
//	E[C·1{|B| ≥ a} | A=a] = Pr(M ≥ a+2)·( a·P_B(≥a) + PE_B(≥a) )
//	                      + Pr(M < a+2)·( a·P_B(≥a) + a·PE_B(≥a) )
//
// Half {|A| > |B|} pivots on b (S = b, strict):
//
//	E[C·1{|A| > b} | B=b] = Pr(M ≥ b+2)·( PE_A(>b) + b·P_A(>b) )
//	                      + Pr(M < b+2)·( PE_A(>b)·(1 + b) )
func nestedLoopEC(a, b, mem dist.Dist) float64 {
	total := 0.0
	{
		cur := newSuffixCursor(b)
		mc := newAtLeastCursor(mem)
		for i, n := 0, a.Len(); i < n; i++ {
			av, pa := a.At(i)
			pB, peB := cur.atLeast(av)
			if pB == 0 {
				continue
			}
			pFit := mc.atLeast(av + 2)
			fit := av*pB + peB
			thrash := av*pB + av*peB
			total += pa * (pFit*fit + (1-pFit)*thrash)
		}
	}
	{
		cur := newSuffixCursor(a)
		mc := newAtLeastCursor(mem)
		for j, n := 0, b.Len(); j < n; j++ {
			bv, pb := b.At(j)
			pA, peA := cur.greater(bv)
			if pA == 0 {
				continue
			}
			pFit := mc.atLeast(bv + 2)
			fit := peA + bv*pA
			thrash := peA * (1 + bv)
			total += pb * (pFit*fit + (1-pFit)*thrash)
		}
	}
	return total
}

// atLeastCursor yields Pr[M ≥ t] for ascending thresholds t.
type atLeastCursor struct {
	d    dist.Dist
	i    int
	excl float64 // Pr(M < front)
}

func newAtLeastCursor(d dist.Dist) *atLeastCursor { return &atLeastCursor{d: d} }

func (c *atLeastCursor) atLeast(t float64) float64 {
	for n := c.d.Len(); c.i < n; c.i++ {
		v, p := c.d.At(c.i)
		if !(v < t) {
			break
		}
		c.excl += p
	}
	return 1 - c.excl
}

// --- Section 3.6.3: result-size distribution ----------------------------

// ResultSizeDist returns the distribution of |A ⋈ B| = |A|·|B|·σ under
// independence. To keep bucket counts bounded, each input is first
// rebucketed to ⌊∛target⌋ buckets (so the product has at most target
// buckets), exactly the strategy of Section 3.6.3; the final law is
// rebucketed to target as a safety net against duplicate-value merges
// leaving it slightly over.
func ResultSizeDist(a, b, sigma dist.Dist, target int) (dist.Dist, error) {
	if target <= 0 {
		return dist.Dist{}, dist.ErrBadTarget
	}
	k := int(math.Cbrt(float64(target)))
	if k < 1 {
		k = 1
	}
	ar, err := a.Rebucket(k)
	if err != nil {
		return dist.Dist{}, err
	}
	br, err := b.Rebucket(k)
	if err != nil {
		return dist.Dist{}, err
	}
	sr, err := sigma.Rebucket(k)
	if err != nil {
		return dist.Dist{}, err
	}
	joint := dist.Combine3(ar, br, sr, func(x, y, z float64) float64 { return x * y * z })
	return joint.Rebucket(target)
}

// ResultSizeDistIn is ResultSizeDist with the rebucketed inputs, their
// product and the result built in s, bit for bit the same law: the
// optimizer's Algorithm D builds one per surviving join candidate and
// throws them away together. The result is valid until s is Reset.
func ResultSizeDistIn(s *dist.Slab, a, b, sigma dist.Dist, target int) (dist.Dist, error) {
	if target <= 0 {
		return dist.Dist{}, dist.ErrBadTarget
	}
	k := max(int(math.Cbrt(float64(target))), 1)
	ar, err := s.Rebucket(a, k)
	if err != nil {
		return dist.Dist{}, err
	}
	br, err := s.Rebucket(b, k)
	if err != nil {
		return dist.Dist{}, err
	}
	sr, err := s.Rebucket(sigma, k)
	if err != nil {
		return dist.Dist{}, err
	}
	joint, err := s.Combine3(ar, br, sr, func(x, y, z float64) float64 { return x * y * z })
	if err != nil {
		return dist.Dist{}, err
	}
	return s.Rebucket(joint, target)
}

// ResultSizeExact returns the un-rebucketed law of |A|·|B|·σ: the O(b³)
// reference the rebucketed law is compared against in experiment E13.
func ResultSizeExact(a, b, sigma dist.Dist) dist.Dist {
	return dist.Combine3(a, b, sigma, func(x, y, z float64) float64 { return x * y * z })
}

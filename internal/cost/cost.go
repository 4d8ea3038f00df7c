// Package cost implements the paper's I/O cost model: the simplified
// Shapiro [Sha86] formulas of Sections 1.1 and 3.6 of Chu, Halpern and
// Seshadri (PODS 1999), "simplified to three cases" (footnote 2).
//
// All costs are measured in page I/Os. Relation sizes |A|, |B| are in
// pages, memory M in buffer pages. The formulas are deliberately simple —
// the paper speculates that "a return to simple formulas in combination
// with LEC optimization may result in more reliable query optimizers" —
// and their discontinuities (at √L, ∛L, S+2, ...) are exactly what makes
// LEC plans diverge from LSC plans.
package cost

import (
	"fmt"
	"math"
)

// JoinMethod identifies a binary join algorithm.
type JoinMethod uint8

// Join methods considered by the optimizer.
const (
	// SortMerge is sort-merge join. Cost (Section 3.6.1), L = max(|A|,|B|):
	//   2(|A|+|B|) if M > √L; 4(|A|+|B|) if ∛L < M ≤ √L; 6(|A|+|B|) if M ≤ ∛L.
	// Output is ordered on the join column.
	SortMerge JoinMethod = iota
	// GraceHash is Grace hash join [Sha86]. The memory thresholds depend
	// on the SMALLER input S = min(|A|,|B|): one pass (|A|+|B|) when the
	// build side fits in memory (M ≥ S+2 — hybrid hash's degenerate
	// case, which the engine realizes as an in-memory hash join), two
	// passes when M > √S, then the same 4/6-pass structure as
	// sort-merge. This asymmetry versus sort-merge is what drives
	// Example 1.1. Output is unordered.
	GraceHash
	// PageNL is page nested-loop join (Section 3.6.2), S = min(|A|,|B|):
	//   |A|+|B| if M ≥ S+2; |A| + |A|·|B| if M < S+2   (A is the outer).
	PageNL
	// BlockNL is block nested-loop join, an extension beyond the paper's
	// three formulas: |A| + ⌈|A|/(M-2)⌉·|B|. Its many small level sets
	// exercise the level-set bucketing strategy of Section 3.7.
	BlockNL
)

// Methods lists every join method, in a stable order.
var Methods = []JoinMethod{SortMerge, GraceHash, PageNL, BlockNL}

// PaperMethods lists only the methods with formulas given in the paper.
var PaperMethods = []JoinMethod{SortMerge, GraceHash, PageNL}

func (m JoinMethod) String() string {
	switch m {
	case SortMerge:
		return "sort-merge"
	case GraceHash:
		return "grace-hash"
	case PageNL:
		return "page-nl"
	case BlockNL:
		return "block-nl"
	default:
		return fmt.Sprintf("JoinMethod(%d)", uint8(m))
	}
}

// OrdersOutput reports whether the method's output is sorted on the join
// column (only sort-merge).
func (m JoinMethod) OrdersOutput() bool { return m == SortMerge }

// passMultiplier encodes the paper's three-case pass structure keyed to a
// pivot relation size R: 2 passes over the data when M > √R, 4 when
// ∛R < M ≤ √R, 6 when M ≤ ∛R.
func passMultiplier(r, mem float64) float64 {
	switch {
	case mem > math.Sqrt(r):
		return 2
	case aboveCbrt(mem, r):
		return 4
	default:
		return 6
	}
}

// cbrtGuard is the relative half-width of the band around mem³ = r inside
// which aboveCbrt asks math.Cbrt. The cube costs two roundings and the band
// edge a third (≤ 1.2e-16 each) and math.Cbrt is good to under an ulp, so
// outside the band the cube and the root cannot disagree — with four orders
// of magnitude to spare.
const cbrtGuard = 1e-12

// aboveCbrt reports mem > math.Cbrt(r), bit for bit, without the root
// wherever a multiply can decide it (math.Cbrt is a ~25 ns software
// routine and this test runs once per law bucket per candidate join).
// Sizes are in pages, so r ≥ 1 is every pivot the optimizer produces;
// below that — where the cube could underflow into subnormals and lose
// its relative accuracy — and for non-positive, NaN and in-band arguments
// the root decides.
func aboveCbrt(mem, r float64) bool {
	if r >= 1 {
		switch m3 := mem * mem * mem; {
		case m3 > r*(1+cbrtGuard):
			return true
		case m3 < r*(1-cbrtGuard):
			return false
		}
	}
	return mem > math.Cbrt(r)
}

// SortIO returns the cost of sorting r pages with memory m: free when the
// input fits in memory (the sort happens during the consuming read), and
// otherwise the same three-case external-merge structure as sort-merge.
func SortIO(r, mem float64) float64 {
	if r <= 0 || r <= mem {
		return 0
	}
	return passMultiplier(r, mem) * r
}

// ScanIO returns the cost of a full heap scan.
func ScanIO(pages float64) float64 {
	if pages <= 0 {
		return 0
	}
	return pages
}

// IndexScanIO returns the cost of retrieving a sel fraction of a table
// through a B+-tree index of the given height. A clustered index reads
// ⌈sel·pages⌉ contiguous pages; an unclustered index pays one page fetch
// per matching row, ⌈sel·rows⌉.
func IndexScanIO(height, sel, pages, rows float64, clustered bool) float64 {
	if sel <= 0 || pages <= 0 {
		return 0
	}
	if sel > 1 {
		sel = 1
	}
	if clustered {
		return height + math.Ceil(sel*pages)
	}
	return height + math.Ceil(sel*rows)
}

// JoinBreakpoints returns the memory values at which the paper's charge
// JoinIOModel(ModelPaper, method, a, b, ·) changes value — the boundaries
// of the cost function's level sets in the memory dimension (Section 3.7).
// The returned values are ascending and are the *lowest memory in each new
// regime* (i.e. cost is constant on [v_i, v_{i+1})). maxBreaks caps the
// output for methods with many level sets (BlockNL).
func JoinBreakpoints(method JoinMethod, outer, inner float64, maxBreaks int) []float64 {
	if outer <= 0 || inner <= 0 {
		return nil
	}
	switch method {
	case SortMerge:
		l := math.Max(outer, inner)
		return []float64{nextUp(math.Cbrt(l)), nextUp(math.Sqrt(l))}
	case GraceHash:
		s := math.Min(outer, inner)
		return []float64{nextUp(math.Cbrt(s)), nextUp(math.Sqrt(s)), s + 2}
	case PageNL:
		return []float64{math.Min(outer, inner) + 2}
	case BlockNL:
		// cost changes where ⌈outer/(M-2)⌉ changes: M = 2 + outer/k.
		var out []float64
		for k := 1; k <= maxBreaks; k++ {
			out = append(out, 2+outer/float64(k))
		}
		// ascending order
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
		return out
	default:
		return nil
	}
}

// SortBreakpoints returns the memory level-set boundaries of SortIO(r, ·).
func SortBreakpoints(r float64) []float64 {
	if r <= 0 {
		return nil
	}
	return []float64{nextUp(math.Cbrt(r)), nextUp(math.Sqrt(r)), nextUp(r)}
}

// nextUp nudges a boundary so that a representative placed exactly at the
// returned value falls in the *higher* regime (formulas use strict >).
func nextUp(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }

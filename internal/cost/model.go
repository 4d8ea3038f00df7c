// Engine-exact cost model. The paper's footnote-2 formulas charge grace
// hash with a three-case 2/4/6 pass multiplier keyed to √S/∛S memory
// thresholds; the engine realizes a demand-driven recursive partitioning
// whose pass count is ⌈log_fanOut⌉-shaped. Near the thresholds — and
// especially when the optimizer's S is stale under statistics drift — the
// two machines disagree by phase-dependent factors, which is exactly the
// magnitude error that inverted the heap-only shared-volatile tenant's
// LSC-vs-LEC ranking. ModelEngine charges the recursion the engine
// actually runs; ModelPaper keeps the paper's formulas byte-for-byte.
package cost

import (
	"fmt"
	"math"
)

// Model selects which machine the join formulas describe.
type Model uint8

const (
	// ModelPaper is the paper's simplified three-case formulas (footnote
	// 2) — the zero value, so default Options and every experiment keep
	// reproducing the published tables unchanged.
	ModelPaper Model = iota
	// ModelEngine charges grace hash with the engine's actual recursion:
	// demand-driven fan-out (GraceFanOut), per-level partition writes
	// including partial tail pages, the S+2 in-memory boundary, and the
	// level-cap block-nested-loop fallback. All other operators share the
	// paper's formulas, which the engine already realizes within the
	// documented agreement bands.
	ModelEngine
)

func (m Model) String() string {
	switch m {
	case ModelPaper:
		return "paper"
	case ModelEngine:
		return "engine"
	default:
		return fmt.Sprintf("Model(%d)", uint8(m))
	}
}

// graceLevelCap is the engine's recursion-depth cap: a partitioning call
// entered at a level beyond the cap degenerates to block nested loop
// (degenerate key distributions). Mirrors the `level > 8` guard in
// engine.graceHashJoin.
const graceLevelCap = 8

// GraceFanOut is the engine's grace-hash partition count for a build side
// of small pages at mem buffer pages: enough partitions that an average
// build partition fits in memory, plus one for hash-balance headroom,
// capped by the write frames available (mem − 1 input frame) and floored
// at 2. This is the single source of truth — engine.graceHashJoin calls
// it for the realized fan-out and engineGraceIO charges with it, so the
// two cannot silently diverge.
func GraceFanOut(small, mem int64) int64 {
	if mem < 3 {
		mem = 3
	}
	fanOut := (small+mem-3)/(mem-2) + 1
	if maxFan := mem - 1; fanOut > maxFan {
		fanOut = maxFan
	}
	if fanOut < 2 {
		fanOut = 2
	}
	return fanOut
}

// GracePasses simulates the engine's grace-hash recursion for a build
// side of s pages at memory m (floats accepted for symmetry with the
// other cost functions; pages are ⌈s⌉, buffers ⌊m⌋ floored at the
// engine's 3-page minimum). It returns the number of partitioning levels
// performed before the build side fits in memory — 0 means the first
// call joins in memory — and whether the recursion would hit the level
// cap and degenerate to block nested loop. Partitions are assumed
// hash-balanced (each level divides the build side by its fan-out,
// rounded up), which the engine's avalanched hashKey realizes to within
// a page.
//
//leclint:allow reach -- test oracle: TestGracePassesGridMatchesEngine
func GracePasses(s, m float64) (levels int, fallback bool) {
	sp := pagesOf(s)
	mem := int64(MemPages(m))
	for level := 0; ; level++ {
		if level > graceLevelCap {
			return levels, true
		}
		if sp+2 <= mem {
			return levels, false
		}
		sp = ceilDiv(sp, GraceFanOut(sp, mem))
		levels++
	}
}

// JoinIOModel returns C(method, v) under the selected cost model for
// joining outer |A| pages with inner |B| pages under memory mem. A size that
// is not positive — zero, negative or NaN — is an empty input and costs 0;
// every other price is ≥ 0 and not NaN.
// ModelPaper charges the three-case formulas documented on each JoinMethod;
// ModelEngine differs only for grace hash, where it charges the engine's
// exact recursion via engineGraceIO.
func JoinIOModel(model Model, method JoinMethod, outer, inner, mem float64) float64 {
	if !(outer > 0 && inner > 0) {
		return 0
	}
	switch method {
	case SortMerge:
		return passMultiplier(math.Max(outer, inner), mem) * (outer + inner)
	case GraceHash:
		if model == ModelEngine {
			return engineGraceIO(pagesOf(outer), pagesOf(inner), int64(MemPages(mem)), 0)
		}
		// Build side fits (S pages + 2 streaming frames): one-pass
		// in-memory hash join, each side read exactly once. Without this
		// case the model charges 2(|A|+|B|) in a regime where the engine
		// pays |A|+|B| — a memory-dependent 2× error that inverts the
		// grace-hash/page-nl ranking at high memory.
		if mem >= math.Min(outer, inner)+2 {
			return outer + inner
		}
		return passMultiplier(math.Min(outer, inner), mem) * (outer + inner)
	case PageNL:
		if mem >= math.Min(outer, inner)+2 {
			return outer + inner
		}
		return outer + outer*inner
	case BlockNL:
		blocks := math.Ceil(outer / math.Max(1, mem-2))
		if blocks == 0 {
			// An outer too small to fill a block of unbounded memory: no
			// rescan term, and no 0·Inf.
			return outer
		}
		return outer + blocks*inner
	default:
		panic(fmt.Sprintf("cost: unknown join method %v", method))
	}
}

// engineGraceIO charges grace hash the way engine.graceHashJoin executes
// it, on integer page counts: a is the outer input, b the inner, m the
// buffer-pool capacity, level the recursion depth. Each partitioning
// level reads both inputs and writes fanOut partitions per side — each
// ⌈X/fanOut⌉ pages, so the partial tail pages the engine materializes
// are charged — then recurses on one balanced partition pair and
// multiplies by the fan-out. The recursion terminates at the in-memory
// boundary (build side + 2 streaming frames fit) or at the level cap,
// where the engine degenerates to block nested loop over the stuck
// partition pair. Counts are at most maxPages, so every sum here is far
// inside int64; the one product of two counts is formed in float64.
func engineGraceIO(a, b, m int64, level int) float64 {
	if a <= 0 || b <= 0 {
		// The engine skips empty partition pairs without touching a page.
		return 0
	}
	if level > graceLevelCap {
		// Block-nested-loop fallback: read the outer once, scan the inner
		// once per ⌈a/(m−2)⌉ outer block (engine.blockNLJoin).
		blockPages := m - 2
		if blockPages < 1 {
			blockPages = 1
		}
		return float64(a) + float64(ceilDiv(a, blockPages))*float64(b)
	}
	small := a
	if b < a {
		small = b
	}
	if small+2 <= m {
		// In-memory hash join: each side read exactly once.
		return float64(a + b)
	}
	f := GraceFanOut(small, m)
	ap, bp := ceilDiv(a, f), ceilDiv(b, f)
	// This level: read both inputs, write every partition page (the ceil
	// terms charge the partial tail page each partition ends with). The
	// recursive calls read their own partitions, so no page is charged
	// twice.
	io := float64(a + b + f*ap + f*bp)
	return io + float64(f)*engineGraceIO(ap, bp, m, level+1)
}

// maxPages is the one cap on the page counts the grace model carries in
// int64, on 32-bit platforms too: 2⁵² pages (4.5e15 — no catalog comes
// near it). Below it a count is exact and every sum engineGraceIO forms
// stays inside int64 with room to spare; a larger size, +Inf included, is
// charged as maxPages pages. Uncapped, int64(math.Ceil(v)) of a size past
// 2⁶³ reads as MinInt64 on amd64 — an empty, free join — and sums past 2⁶³
// wrap negative.
const maxPages = 1 << 52

// pagesOf converts an estimated size to a whole page count (a fraction
// of a page still occupies one page), 0 for a size that is not positive
// and at most maxPages.
func pagesOf(v float64) int64 {
	switch {
	case !(v > 0):
		return 0
	case v >= maxPages:
		return maxPages
	}
	return int64(math.Ceil(v))
}

// MemPages converts a memory value to the engine's buffer-pool capacity:
// whole frames only, floored at the 3-page minimum every operator needs,
// with +Inf and anything past MaxInt32 meaning "unbounded" (MaxInt32). The
// executor sizes its pools with this same function, so the model and the
// engine cannot disagree about what a memory value buys.
func MemPages(m float64) int {
	if math.IsInf(m, 1) || m >= math.MaxInt32 {
		return math.MaxInt32
	}
	mp := int(m)
	if mp < 3 {
		mp = 3
	}
	return mp
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

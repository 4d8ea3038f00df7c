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
func GraceFanOut(small, mem int) int {
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
func GracePasses(s, m float64) (levels int, fallback bool) {
	sp := pagesOf(s)
	mem := MemPages(m)
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

// JoinIOModel returns C(method, v) under the selected cost model.
// ModelPaper delegates to JoinIO unchanged; ModelEngine differs only for
// grace hash, where it charges the engine's exact recursion via
// engineGraceIO. Sizes must be positive; non-positive sizes cost 0.
func JoinIOModel(model Model, method JoinMethod, outer, inner, mem float64) float64 {
	if model == ModelEngine && method == GraceHash {
		if outer <= 0 || inner <= 0 {
			return 0
		}
		return engineGraceIO(pagesOf(outer), pagesOf(inner), MemPages(mem), 0)
	}
	return JoinIO(method, outer, inner, mem)
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
// partition pair.
func engineGraceIO(a, b, m, level int) float64 {
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
		return float64(a + ceilDiv(a, blockPages)*b)
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

// pagesOf converts an estimated size to a whole page count (a fraction
// of a page still occupies one page).
func pagesOf(v float64) int {
	if v <= 0 {
		return 0
	}
	return int(math.Ceil(v))
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

func ceilDiv(a, b int) int { return (a + b - 1) / b }

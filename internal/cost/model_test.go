package cost

import (
	"math"
	"testing"
)

// paperJoinIO writes the paper's footnote-2 formulas out directly: the
// 2/4/6 pass multiplier from math.Sqrt and math.Cbrt, nothing hoisted.
func paperJoinIO(method JoinMethod, a, b, m float64) float64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	passes := func(r float64) float64 {
		switch {
		case m > math.Sqrt(r):
			return 2
		case m > math.Cbrt(r):
			return 4
		default:
			return 6
		}
	}
	switch method {
	case SortMerge:
		return passes(math.Max(a, b)) * (a + b)
	case GraceHash:
		if m >= math.Min(a, b)+2 {
			return a + b
		}
		return passes(math.Min(a, b)) * (a + b)
	case PageNL:
		if m >= math.Min(a, b)+2 {
			return a + b
		}
		return a + a*b
	default: // BlockNL
		return a + math.Ceil(a/math.Max(1, m-2))*b
	}
}

// TestModelPaperIsJoinIO: ModelPaper must be the paper's formulas
// byte-for-byte — JoinIOModel(ModelPaper, ...) is paperJoinIO with no
// exceptions, across every method and a dense size/memory grid. The
// E1–E20 golden tables rest on this identity.
func TestModelPaperIsJoinIO(t *testing.T) {
	sizes := []float64{0, 0.4, 1, 2, 3.7, 8, 15, 16, 17, 50, 99.5, 100, 250, 1000}
	mems := []float64{0, 1, 3, 4, 5, 9, 10, 11, 31, 32, 33, 100, math.Inf(1)}
	for _, method := range Methods {
		for _, a := range sizes {
			for _, b := range sizes {
				for _, m := range mems {
					got := JoinIOModel(ModelPaper, method, a, b, m)
					want := paperJoinIO(method, a, b, m)
					if got != want {
						t.Fatalf("JoinIOModel(ModelPaper, %v, %v, %v, %v) = %v, paper formula = %v",
							method, a, b, m, got, want)
					}
				}
			}
		}
	}
}

// TestModelEngineDivergesOnlyOnGraceHash: ModelEngine changes the charge
// for grace hash only; sort-merge, page-NL and block-NL keep the paper's
// formulas (the engine realizes those within the documented bands, so
// there is no drift to close).
func TestModelEngineDivergesOnlyOnGraceHash(t *testing.T) {
	for _, method := range Methods {
		if method == GraceHash {
			continue
		}
		for _, a := range []float64{1, 7, 40, 200} {
			for _, m := range []float64{3, 6, 12, 50} {
				got := JoinIOModel(ModelEngine, method, a, a+3, m)
				want := JoinIOModel(ModelPaper, method, a, a+3, m)
				if got != want {
					t.Fatalf("JoinIOModel(ModelEngine, %v, ...) = %v, want paper charge %v", method, got, want)
				}
			}
		}
	}
}

// TestModelEngineGraceClosedForms pins the engine-exact grace-hash charge
// with hand-derived anchors for each regime of the recursion.
func TestModelEngineGraceClosedForms(t *testing.T) {
	cases := []struct {
		name          string
		a, b, m, want float64
	}{
		// Build side + 2 streaming frames fit: in-memory hash join, each
		// side read once.
		{"in-memory", 4, 6, 9, 10},
		{"in-memory boundary", 7, 100, 9, 107},
		// One partitioning level: S=23, M=9 → fanOut 5, partitions of 5
		// pages. 23+23 input reads + 2·5·5 partition writes + 2·5·5
		// partition re-reads by the in-memory sub-joins = 146.
		{"one level", 23, 23, 9, 146},
		// Asymmetric inputs, same recursion keyed to the smaller side:
		// a=23, b=40 → fanOut 5, ap=5, bp=8; level: 23+40+25+40=128;
		// sub-joins: 5·(5+8)=65; total 193.
		{"asymmetric", 23, 40, 9, 193},
		// Fractional sizes page-align before charging (⌈3.2⌉=4, ⌈5.9⌉=6)
		// and memory truncates to whole frames.
		{"fractional pages", 3.2, 5.9, 8.7, 10},
		// Non-positive inputs short-circuit like every other charge.
		{"empty outer", 0, 10, 9, 0},
		{"empty inner", 10, -1, 9, 0},
	}
	for _, c := range cases {
		if got := JoinIOModel(ModelEngine, GraceHash, c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: JoinIOModel(ModelEngine, GraceHash, %v, %v, %v) = %v, want %v",
				c.name, c.a, c.b, c.m, got, c.want)
		}
	}
}

// TestModelEngineGraceRecursionInvariants checks structural properties of
// the recursion charge over a grid: positive for positive inputs, at
// least one read of each input, never cheaper than the in-memory bound,
// and finite even where the balanced recursion hits the level cap.
func TestModelEngineGraceRecursionInvariants(t *testing.T) {
	for _, a := range []float64{1, 2, 5, 23, 64, 200, 1000, 3000} {
		for _, b := range []float64{1, 8, 23, 500, 3000} {
			for _, m := range []float64{3, 4, 5, 9, 16, 64, 1000} {
				got := JoinIOModel(ModelEngine, GraceHash, a, b, m)
				if math.IsNaN(got) || math.IsInf(got, 0) {
					t.Fatalf("(%v,%v,%v): non-finite charge %v", a, b, m, got)
				}
				if got < a+b {
					t.Fatalf("(%v,%v,%v): charge %v below one read of each input", a, b, m, got)
				}
				if math.Min(a, b)+2 <= m && got != a+b {
					t.Fatalf("(%v,%v,%v): in-memory regime must charge exactly a+b, got %v", a, b, m, got)
				}
			}
		}
	}
}

// TestGracePassesAnchors pins the pass simulator against hand-replayed
// recursions, including the level-cap fallback a minimum-memory pool
// reaches on a large build side.
func TestGracePassesAnchors(t *testing.T) {
	cases := []struct {
		s, m     float64
		levels   int
		fallback bool
	}{
		{7, 100, 0, false}, // fits immediately
		{23, 9, 1, false},  // one split: 23 → ⌈23/5⌉ = 5, 5+2 ≤ 9
		{8, 4, 2, false},   // 8 → ⌈8/3⌉ = 3 → 1
		{1, 3, 0, false},   // single page always fits (mem floor 3)
		{2000, 3, 9, true}, // fan-out capped at 2: halving exhausts the 8-level cap
		{0, 9, 0, false},   // empty build side
	}
	for _, c := range cases {
		lv, fb := GracePasses(c.s, c.m)
		if lv != c.levels || fb != c.fallback {
			t.Errorf("GracePasses(%v, %v) = (%d, %v), want (%d, %v)", c.s, c.m, lv, fb, c.levels, c.fallback)
		}
	}
}

// TestGracePassesMonotoneInMemory: more memory never deepens the
// recursion — treating a level-cap fallback as deeper than any finite
// level count, levels are non-increasing in m for fixed s, fallbacks
// occur only below every non-fallback memory, and once the build side
// fits (s+2 ≤ m) the simulator reports zero levels.
func TestGracePassesMonotoneInMemory(t *testing.T) {
	for _, s := range []float64{5, 23, 64, 200, 1000} {
		prev := math.MaxInt32 // fallback sentinel: deeper than any level count
		for m := 3.0; m <= s+4; m++ {
			lv, fb := GracePasses(s, m)
			if fb {
				if prev != math.MaxInt32 {
					t.Fatalf("GracePasses(%v, %v): fallback above a non-fallback memory", s, m)
				}
				continue
			}
			if lv > prev {
				t.Fatalf("GracePasses(%v, %v) = %d levels > %d at less memory", s, m, lv, prev)
			}
			prev = lv
			if s+2 <= m && lv != 0 {
				t.Fatalf("GracePasses(%v, %v) = %d levels although the build side fits", s, m, lv)
			}
		}
	}
}

// TestGraceFanOutBounds: the shared fan-out stays within the engine's
// frame budget — at least 2 partitions, at most m−1 write frames — and
// yields an average build partition that fits in memory whenever the cap
// doesn't bind.
func TestGraceFanOutBounds(t *testing.T) {
	for s := 1; s <= 2048; s++ {
		for _, m := range []int{0, 1, 2, 3, 4, 5, 8, 9, 16, 100} {
			f := GraceFanOut(s, m)
			em := m
			if em < 3 {
				em = 3
			}
			max := em - 1
			if max < 2 {
				max = 2
			}
			if f < 2 || f > max {
				t.Fatalf("GraceFanOut(%d, %d) = %d outside [2, %d]", s, m, f, max)
			}
			if f < max && ceilDiv(s, f) > em-2 {
				t.Fatalf("GraceFanOut(%d, %d) = %d: uncapped fan-out leaves %d-page partitions over the %d-frame budget",
					s, m, f, ceilDiv(s, f), em-2)
			}
		}
	}
}

// TestModelString covers the Model stringer, including the out-of-range
// diagnostic form.
func TestModelString(t *testing.T) {
	if got := ModelPaper.String(); got != "paper" {
		t.Errorf("ModelPaper = %q", got)
	}
	if got := ModelEngine.String(); got != "engine" {
		t.Errorf("ModelEngine = %q", got)
	}
	if got := Model(9).String(); got != "Model(9)" {
		t.Errorf("Model(9) = %q", got)
	}
}

// TestModelPaperIsZeroValue: the zero value of Model must stay ModelPaper
// — default optimizer.Options and every experiment rely on it to keep the
// published tables reproducing unchanged.
func TestModelPaperIsZeroValue(t *testing.T) {
	var m Model
	if m != ModelPaper {
		t.Fatalf("zero Model = %v, want ModelPaper", m)
	}
}

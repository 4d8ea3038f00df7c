package cost

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v", msg, got, want)
	}
}

// TestExample11Formulas checks the motivating example's raw numbers:
// A = 1,000,000 pages, B = 400,000 pages.
func TestExample11Formulas(t *testing.T) {
	const a, b = 1_000_000, 400_000
	// Sort-merge keyed to the LARGER relation: √L = 1000.
	approx(t, JoinIOModel(ModelPaper, SortMerge, a, b, 2000), 2*(a+b), 0, "SM two passes at 2000")
	approx(t, JoinIOModel(ModelPaper, SortMerge, a, b, 1001), 2*(a+b), 0, "SM two passes just above 1000")
	approx(t, JoinIOModel(ModelPaper, SortMerge, a, b, 1000), 4*(a+b), 0, "SM extra pass at exactly 1000 (strict >)")
	approx(t, JoinIOModel(ModelPaper, SortMerge, a, b, 700), 4*(a+b), 0, "SM extra pass at 700")
	approx(t, JoinIOModel(ModelPaper, SortMerge, a, b, 100), 6*(a+b), 0, "SM six at ∛L")
	// Grace hash keyed to the SMALLER relation: √S ≈ 632.46.
	approx(t, JoinIOModel(ModelPaper, GraceHash, a, b, 700), 2*(a+b), 0, "GH two passes at 700")
	approx(t, JoinIOModel(ModelPaper, GraceHash, a, b, 633), 2*(a+b), 0, "GH two passes at 633")
	approx(t, JoinIOModel(ModelPaper, GraceHash, a, b, 632), 4*(a+b), 0, "GH extra pass at 632")
	approx(t, JoinIOModel(ModelPaper, GraceHash, a, b, 73), 6*(a+b), 0, "GH six below ∛S≈73.7")
	// One-pass in-memory case: the build side S = 400,000 fits at M ≥ S+2.
	approx(t, JoinIOModel(ModelPaper, GraceHash, a, b, 400_002), a+b, 0, "GH one pass when build fits")
	approx(t, JoinIOModel(ModelPaper, GraceHash, a, b, 400_001), 2*(a+b), 0, "GH two passes just below fit")
	// Result sort: 3000 pages, memory 2000 → external, √3000≈54.8 < 2000.
	approx(t, SortIO(3000, 2000), 2*3000, 0, "sort small result")
	approx(t, SortIO(3000, 3000), 0, 0, "fits in memory: free")
	approx(t, SortIO(3000, 50), 4*3000, 0, "sort with tiny memory")
	approx(t, SortIO(3000, 10), 6*3000, 0, "sort below cube root")
}

// TestExample11PlanComparison reproduces the paper's conclusion at the
// plan level: under the bimodal memory law {700:0.2, 2000:0.8}, Plan 1
// (sort-merge) is cheaper at both the mean (1740) and the mode (2000), yet
// Plan 2 (grace hash + sort) has lower expected cost.
func TestExample11PlanComparison(t *testing.T) {
	const a, b, res = 1_000_000, 400_000, 3000
	plan1 := func(m float64) float64 { return JoinIOModel(ModelPaper, SortMerge, a, b, m) }
	plan2 := func(m float64) float64 { return JoinIOModel(ModelPaper, GraceHash, a, b, m) + SortIO(res, m) }

	for _, m := range []float64{2000, 1740} {
		if !(plan1(m) < plan2(m)) {
			t.Fatalf("at point memory %v LSC must prefer Plan 1: p1=%v p2=%v", m, plan1(m), plan2(m))
		}
	}
	ec1 := 0.8*plan1(2000) + 0.2*plan1(700)
	ec2 := 0.8*plan2(2000) + 0.2*plan2(700)
	if !(ec2 < ec1) {
		t.Fatalf("LEC must prefer Plan 2: EC1=%v EC2=%v", ec1, ec2)
	}
	// Concrete values implied by the formulas.
	approx(t, ec1, 0.8*2*1.4e6+0.2*4*1.4e6, 1e-6, "EC plan1")
	approx(t, ec2, 2*1.4e6+6000, 1e-6, "EC plan2")
}

func TestPageNL(t *testing.T) {
	// S = min = 40; fits when M ≥ 42.
	approx(t, JoinIOModel(ModelPaper, PageNL, 100, 40, 42), 140, 0, "NL fits")
	approx(t, JoinIOModel(ModelPaper, PageNL, 100, 40, 41), 100+100*40, 0, "NL thrashes")
	// Outer is |A| in the formula even when it's the smaller one.
	approx(t, JoinIOModel(ModelPaper, PageNL, 40, 100, 41), 40+40*100, 0, "NL small outer thrashes")
	approx(t, JoinIOModel(ModelPaper, PageNL, 40, 100, 42), 140, 0, "NL small outer fits")
}

func TestBlockNL(t *testing.T) {
	// outer=100, mem=12 → blocks = ceil(100/10) = 10 → 100 + 10·50.
	approx(t, JoinIOModel(ModelPaper, BlockNL, 100, 50, 12), 600, 0, "10 blocks")
	// mem=102 → one block.
	approx(t, JoinIOModel(ModelPaper, BlockNL, 100, 50, 102), 150, 0, "one block")
	// mem ≤ 3 → denominator clamps to 1 → outer + outer·inner.
	approx(t, JoinIOModel(ModelPaper, BlockNL, 100, 50, 1), 100+100*50, 0, "degenerate memory")
}

func TestJoinIOEdgeCases(t *testing.T) {
	for _, m := range Methods {
		if JoinIOModel(ModelPaper, m, 0, 10, 100) != 0 || JoinIOModel(ModelPaper, m, 10, 0, 100) != 0 {
			t.Fatalf("%v: empty input should cost 0", m)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown method should panic")
		}
	}()
	JoinIOModel(ModelPaper, JoinMethod(99), 1, 1, 1)
}

func TestScanAndIndexIO(t *testing.T) {
	approx(t, ScanIO(123), 123, 0, "heap scan")
	approx(t, ScanIO(0), 0, 0, "empty scan")
	approx(t, IndexScanIO(2, 0.1, 100, 1000, true), 2+10, 0, "clustered")
	approx(t, IndexScanIO(2, 0.1, 100, 1000, false), 2+100, 0, "unclustered")
	approx(t, IndexScanIO(2, 0, 100, 1000, true), 0, 0, "zero sel")
	approx(t, IndexScanIO(2, 5, 100, 1000, true), 2+100, 0, "sel clamped to 1")
}

func TestMethodStrings(t *testing.T) {
	want := map[JoinMethod]string{
		SortMerge: "sort-merge",
		GraceHash: "grace-hash",
		PageNL:    "page-nl",
		BlockNL:   "block-nl",
	}
	for m, s := range want {
		if m.String() != s {
			t.Fatalf("%d String = %q want %q", m, m.String(), s)
		}
	}
	if JoinMethod(42).String() == "" {
		t.Fatal("unknown method string")
	}
	if !SortMerge.OrdersOutput() || GraceHash.OrdersOutput() || PageNL.OrdersOutput() {
		t.Fatal("OrdersOutput wrong")
	}
}

// TestBreakpointsPartitionLevelSets: cost is constant between consecutive
// breakpoints and changes across each breakpoint — the defining property
// the Section 3.7 level-set bucketing relies on.
func TestBreakpointsPartitionLevelSets(t *testing.T) {
	const a, b = 90_000, 10_000
	for _, m := range []JoinMethod{SortMerge, GraceHash, PageNL} {
		bps := JoinBreakpoints(m, a, b, 10)
		if len(bps) == 0 {
			t.Fatalf("%v: no breakpoints", m)
		}
		for i := 1; i < len(bps); i++ {
			if bps[i] <= bps[i-1] {
				t.Fatalf("%v: breakpoints not ascending: %v", m, bps)
			}
		}
		// Sample points: below first, between each pair, above last.
		probes := []float64{bps[0] / 2}
		for i := 0; i < len(bps)-1; i++ {
			probes = append(probes, (bps[i]+bps[i+1])/2)
		}
		probes = append(probes, bps[len(bps)-1]*2)
		prev := math.NaN()
		for i, p := range probes {
			c := JoinIOModel(ModelPaper, m, a, b, p)
			if i > 0 && c == prev {
				t.Fatalf("%v: cost did not change across breakpoint %d (%v)", m, i-1, bps[i-1])
			}
			prev = c
		}
		// Within a region the cost is flat.
		lo, hi := bps[0], bps[1%len(bps)]
		if len(bps) >= 2 {
			c1 := JoinIOModel(ModelPaper, m, a, b, lo+(hi-lo)*0.25)
			c2 := JoinIOModel(ModelPaper, m, a, b, lo+(hi-lo)*0.75)
			if c1 != c2 {
				t.Fatalf("%v: cost not constant within level set", m)
			}
		}
	}
}

func TestBreakpointRepresentativesLandHigh(t *testing.T) {
	// A representative placed exactly at a returned breakpoint must be in
	// the higher (cheaper) regime.
	const a, b = 1_000_000, 400_000
	bps := JoinBreakpoints(SortMerge, a, b, 0)
	approx(t, JoinIOModel(ModelPaper, SortMerge, a, b, bps[1]), 2*(a+b), 0, "at √L breakpoint: cheap regime")
	approx(t, JoinIOModel(ModelPaper, SortMerge, a, b, bps[0]), 4*(a+b), 0, "at ∛L breakpoint: middle regime")
}

func TestBlockNLBreakpoints(t *testing.T) {
	bps := JoinBreakpoints(BlockNL, 100, 50, 4)
	// k=4..1 → 2+25, 2+33.3, 2+50, 2+100 ascending.
	want := []float64{27, 2 + 100.0/3, 52, 102}
	if len(bps) != 4 {
		t.Fatalf("got %d breakpoints", len(bps))
	}
	for i := range want {
		approx(t, bps[i], want[i], 1e-9, "blocknl breakpoint")
	}
}

func TestSortBreakpoints(t *testing.T) {
	bps := SortBreakpoints(3000)
	if len(bps) != 3 {
		t.Fatalf("got %v", bps)
	}
	approx(t, SortIO(3000, bps[2]), 0, 0, "at R: free")
	approx(t, SortIO(3000, bps[1]), 2*3000, 0, "at √R: two passes")
	approx(t, SortIO(3000, bps[0]), 4*3000, 0, "at ∛R: four passes")
	if SortBreakpoints(0) != nil || JoinBreakpoints(SortMerge, 0, 5, 3) != nil {
		t.Fatal("degenerate sizes should have no breakpoints")
	}
	if JoinBreakpoints(JoinMethod(99), 5, 5, 3) != nil {
		t.Fatal("unknown method should have no breakpoints")
	}
}

// Property: join cost is monotone non-increasing in memory for all
// methods — more buffer never hurts under this model.
func TestQuickMonotoneInMemory(t *testing.T) {
	f := func(ai, bi uint16, m1, m2 uint16) bool {
		a, b := float64(ai)+1, float64(bi)+1
		lo, hi := float64(m1)+3, float64(m2)+3
		if lo > hi {
			lo, hi = hi, lo
		}
		for _, m := range Methods {
			if JoinIOModel(ModelPaper, m, a, b, hi) > JoinIOModel(ModelPaper, m, a, b, lo) {
				return false
			}
		}
		return SortIO(a, hi) <= SortIO(a, lo)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: with ample memory every method degenerates to reading both
// inputs once (NL variants and the in-memory hash case of GH) or one
// full read-write pass (SM, which always materializes sorted runs).
func TestQuickAmpleMemory(t *testing.T) {
	f := func(ai, bi uint16) bool {
		a, b := float64(ai)+1, float64(bi)+1
		m := a + b + 10
		if JoinIOModel(ModelPaper, PageNL, a, b, m) != a+b {
			return false
		}
		if JoinIOModel(ModelPaper, BlockNL, a, b, m) != a+b {
			return false
		}
		if JoinIOModel(ModelPaper, SortMerge, a, b, m) != 2*(a+b) {
			return false
		}
		return JoinIOModel(ModelPaper, GraceHash, a, b, m) == a+b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Grace hash is never costlier than sort-merge at equal inputs
// and memory (its pivot is the smaller relation).
func TestQuickGraceLEQSortMerge(t *testing.T) {
	f := func(ai, bi, mi uint16) bool {
		a, b, m := float64(ai)+1, float64(bi)+1, float64(mi)+1
		return JoinIOModel(ModelPaper, GraceHash, a, b, m) <= JoinIOModel(ModelPaper, SortMerge, a, b, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

package expcost

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lecopt/internal/cost"
	"lecopt/internal/dist"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v", msg, got, want)
	}
}

// relErr returns |got-want| / max(1, |want|).
func relErr(got, want float64) float64 {
	d := math.Abs(got - want)
	if w := math.Abs(want); w > 1 {
		return d / w
	}
	return d
}

func randDist(rng *rand.Rand, n int, lo, hi float64) dist.Dist {
	vals := make([]float64, n)
	probs := make([]float64, n)
	for i := range vals {
		vals[i] = lo + rng.Float64()*(hi-lo)
		probs[i] = rng.Float64() + 0.01
	}
	return dist.MustNew(vals, probs)
}

// TestLinearMatchesNaive is the correctness half of experiments E11/E12:
// the O(b_M+b_A+b_B) algorithms agree with the O(b_M·b_A·b_B) triple loop
// on random laws, for all three paper join methods.
func TestLinearMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	methods := []cost.JoinMethod{cost.SortMerge, cost.GraceHash, cost.PageNL}
	for trial := 0; trial < 200; trial++ {
		a := randDist(rng, 1+rng.Intn(12), 1, 1e6)
		b := randDist(rng, 1+rng.Intn(12), 1, 1e6)
		m := randDist(rng, 1+rng.Intn(12), 2, 5000)
		for _, method := range methods {
			want := JoinECNaive(method, a, b, m)
			got, ok := JoinECLinear(method, a, b, m)
			if !ok {
				t.Fatalf("%v: no fast path", method)
			}
			if relErr(got, want) > 1e-9 {
				t.Fatalf("trial %d %v: linear %v vs naive %v\na=%v\nb=%v\nm=%v",
					trial, method, got, want, a, b, m)
			}
		}
	}
}

// TestLinearMatchesNaiveWithTies stresses the boundary cases the sweep's
// strict/non-strict splits must get right: equal values in |A| and |B|,
// memory sitting exactly on thresholds.
func TestLinearMatchesNaiveWithTies(t *testing.T) {
	a := dist.MustNew([]float64{100, 400, 400, 900}, []float64{1, 1, 1, 1})
	b := dist.MustNew([]float64{100, 400, 900}, []float64{1, 2, 1})
	// Memory exactly at √900=30, ∛900≈9.65, S+2 values, etc.
	m := dist.MustNew([]float64{9, 10, 30, 31, 102, 402}, []float64{1, 1, 1, 1, 1, 1})
	for _, method := range []cost.JoinMethod{cost.SortMerge, cost.GraceHash, cost.PageNL} {
		want := JoinECNaive(method, a, b, m)
		got, _ := JoinECLinear(method, a, b, m)
		if relErr(got, want) > 1e-12 {
			t.Fatalf("%v: linear %v vs naive %v", method, got, want)
		}
	}
}

func TestJoinECDispatch(t *testing.T) {
	a := dist.Point(100)
	b := dist.Point(50)
	m := dist.Point(10)
	// Fast path methods agree with direct formula under point laws.
	for _, method := range cost.PaperMethods {
		approx(t, JoinECModel(cost.ModelPaper, method, a, b, m), cost.JoinIOModel(cost.ModelPaper, method, 100, 50, 10), 1e-9,
			method.String())
	}
	// BlockNL has no fast path; dispatch must fall back to naive.
	if _, ok := JoinECLinear(cost.BlockNL, a, b, m); ok {
		t.Fatal("BlockNL should have no linear path")
	}
	approx(t, JoinECModel(cost.ModelPaper, cost.BlockNL, a, b, m), cost.JoinIOModel(cost.ModelPaper, cost.BlockNL, 100, 50, 10), 1e-9, "blocknl naive")
}

// TestExample11ExpectedCosts wires the linear evaluators to the paper's
// motivating numbers.
func TestExample11ExpectedCosts(t *testing.T) {
	a := dist.Point(1_000_000)
	b := dist.Point(400_000)
	m := dist.MustNew([]float64{700, 2000}, []float64{0.2, 0.8})
	sm, _ := JoinECLinear(cost.SortMerge, a, b, m)
	gh, _ := JoinECLinear(cost.GraceHash, a, b, m)
	approx(t, sm, 0.8*2*1.4e6+0.2*4*1.4e6, 1e-6, "EC(SM)")
	approx(t, gh, 2*1.4e6, 1e-6, "EC(GH)")
	sort := SortEC(dist.Point(3000), m)
	approx(t, sort, 6000, 1e-9, "EC(sort result)")
	if !(gh+sort < sm) {
		t.Fatal("plan 2 must win in expectation")
	}
}

func TestSortAndScanEC(t *testing.T) {
	r := dist.MustNew([]float64{100, 10000}, []float64{0.5, 0.5})
	m := dist.Point(50)
	// 100 pages: √100=10 < 50 → wait, 100 > 50 so external: mult 2 → 200.
	// 10000: √10000=100 ≥ 50 → ∛10000≈21.5 < 50 → mult 4 → 40000.
	approx(t, SortEC(r, m), 0.5*200+0.5*40000, 1e-9, "SortEC")
	// Fits in memory: free.
	approx(t, SortEC(dist.Point(10), dist.Point(50)), 0, 0, "in-memory sort free")
}

func TestResultSizeExact(t *testing.T) {
	a := dist.MustNew([]float64{10, 20}, []float64{0.5, 0.5})
	b := dist.MustNew([]float64{100, 200}, []float64{0.5, 0.5})
	s := dist.Point(0.01)
	d := ResultSizeExact(a, b, s)
	// Supports: 10,20,20,40 → merged {10:0.25, 20:0.5, 40:0.25}.
	if d.Len() != 3 {
		t.Fatalf("len = %d", d.Len())
	}
	approx(t, d.Mean(), 15*150*0.01, 1e-9, "mean multiplies")
	approx(t, d.Prob(1), 0.5, 1e-12, "merged middle")
}

func TestResultSizeDistRebucketing(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randDist(rng, 27, 100, 10000)
	b := randDist(rng, 27, 100, 10000)
	s := randDist(rng, 27, 1e-5, 1e-3)
	exact := ResultSizeExact(a, b, s)
	for _, target := range []int{8, 27, 64, 125} {
		got, err := ResultSizeDist(a, b, s, target)
		if err != nil {
			t.Fatalf("target %d: %v", target, err)
		}
		if got.Len() > target {
			t.Fatalf("target %d: got %d buckets", target, got.Len())
		}
		approx(t, got.TotalMass(), 1, 1e-9, "mass")
		// Rebucketing each input to ∛target preserves each input's mean,
		// and independence makes the product mean multiplicative, so the
		// result mean must match the exact law's mean.
		if relErr(got.Mean(), exact.Mean()) > 1e-6 {
			t.Fatalf("target %d: mean drifted: %v vs %v", target, got.Mean(), exact.Mean())
		}
	}
	if _, err := ResultSizeDist(a, b, s, 0); err == nil {
		t.Fatal("target 0 should fail")
	}
}

func TestResultSizeDistSmallInputsPassThrough(t *testing.T) {
	a := dist.Point(10)
	b := dist.Point(20)
	s := dist.Point(0.5)
	d, err := ResultSizeDist(a, b, s, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 || d.Value(0) != 100 {
		t.Fatalf("point laws should stay a point: %v", d)
	}
}

// Property: linear and naive evaluators agree for arbitrary quick-generated
// laws (E11/E12 as a property test).
func TestQuickLinearEqualsNaive(t *testing.T) {
	f := func(seedA, seedB, seedM int64) bool {
		rngA := rand.New(rand.NewSource(seedA))
		rngB := rand.New(rand.NewSource(seedB))
		rngM := rand.New(rand.NewSource(seedM))
		a := randDist(rngA, 1+rngA.Intn(8), 1, 1e5)
		b := randDist(rngB, 1+rngB.Intn(8), 1, 1e5)
		m := randDist(rngM, 1+rngM.Intn(8), 2, 2000)
		for _, method := range []cost.JoinMethod{cost.SortMerge, cost.GraceHash, cost.PageNL} {
			want := JoinECNaive(method, a, b, m)
			got, _ := JoinECLinear(method, a, b, m)
			if relErr(got, want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: expected cost is monotone in stochastic dominance of memory —
// shifting memory mass upward can only decrease EC.
func TestQuickECMonotoneInMemoryShift(t *testing.T) {
	f := func(seed int64, shift uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randDist(rng, 1+rng.Intn(6), 1, 1e5)
		b := randDist(rng, 1+rng.Intn(6), 1, 1e5)
		m := randDist(rng, 1+rng.Intn(6), 2, 2000)
		m2 := m.Map(func(v float64) float64 { return v + float64(shift) })
		for _, method := range []cost.JoinMethod{cost.SortMerge, cost.GraceHash, cost.PageNL} {
			lo, _ := JoinECLinear(method, a, b, m2)
			hi, _ := JoinECLinear(method, a, b, m)
			// Relative slack: Map re-normalizes probabilities, so equal
			// laws can differ by float rounding at 1e10 cost magnitudes.
			if lo > hi*(1+1e-9)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkHelper-oriented sanity: the linear algorithm touches each bucket
// O(1) times, so doubling bucket counts should roughly double work. This
// is asserted as wall-clock in bench_test.go (E11/E12); here we only check
// it stays exact at large b.
func TestLinearExactAtLargeB(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randDist(rng, 200, 1, 1e6)
	b := randDist(rng, 200, 1, 1e6)
	m := randDist(rng, 200, 2, 5000)
	for _, method := range []cost.JoinMethod{cost.SortMerge, cost.GraceHash, cost.PageNL} {
		want := JoinECNaive(method, a, b, m)
		got, _ := JoinECLinear(method, a, b, m)
		if relErr(got, want) > 1e-9 {
			t.Fatalf("%v at b=200: %v vs %v", method, got, want)
		}
	}
}

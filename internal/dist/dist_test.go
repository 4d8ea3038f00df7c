package dist

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v", msg, got, want)
	}
}

func randLaw(rng *rand.Rand, n int, lo, hi float64) Dist {
	vals := make([]float64, n)
	weights := make([]float64, n)
	for i := range vals {
		vals[i] = lo + (hi-lo)*rng.Float64()
		weights[i] = rng.Float64() + 0.01
	}
	return MustNew(vals, weights)
}

// --- constructors --------------------------------------------------------

func TestNewNormalizesSortsAndMerges(t *testing.T) {
	d, err := New([]float64{400, 100, 400, 900}, []float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 {
		t.Fatalf("duplicates should merge: len %d", d.Len())
	}
	if d.Value(0) != 100 || d.Value(1) != 400 || d.Value(2) != 900 {
		t.Fatalf("support not ascending: %v", d)
	}
	approx(t, d.Prob(1), 0.5, 1e-12, "merged weight")
	approx(t, d.TotalMass(), 1, 1e-12, "normalization")
}

func TestNewDropsZeroWeights(t *testing.T) {
	d, err := New([]float64{1, 2, 3}, []float64{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 || d.Value(0) != 1 || d.Value(1) != 3 {
		t.Fatalf("zero-weight bucket should vanish: %v", d)
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name          string
		vals, weights []float64
	}{
		{"empty", nil, nil},
		{"length mismatch", []float64{1}, []float64{1, 2}},
		{"negative weight", []float64{1, 2}, []float64{1, -1}},
		{"zero total", []float64{1, 2}, []float64{0, 0}},
		{"nan value", []float64{math.NaN()}, []float64{1}},
		{"inf value", []float64{math.Inf(1)}, []float64{1}},
		{"nan weight", []float64{1}, []float64{math.NaN()}},
		{"inf weight", []float64{1}, []float64{math.Inf(1)}},
	}
	for _, tc := range cases {
		if _, err := New(tc.vals, tc.weights); !errors.Is(err, ErrBadDist) {
			t.Fatalf("%s: want ErrBadDist, got %v", tc.name, err)
		}
	}
}

func TestMustNewPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic on invalid input")
		}
	}()
	MustNew(nil, nil)
}

func TestQuickNormalization(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randLaw(rng, 1+rng.Intn(20), 1, 1e6)
		if math.Abs(d.TotalMass()-1) > 1e-9 {
			return false
		}
		for i := 0; i < d.Len(); i++ {
			if d.Prob(i) <= 0 {
				return false
			}
			if i > 0 && d.Value(i) <= d.Value(i-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPoint(t *testing.T) {
	p := Point(42)
	if p.IsZero() || p.Len() != 1 || p.Value(0) != 42 || p.Prob(0) != 1 {
		t.Fatalf("point law: %v", p)
	}
	approx(t, p.Mean(), 42, 0, "point mean")
	approx(t, p.Std(), 0, 0, "point std")
	if p.Mode() != 42 || p.Min() != 42 || p.Max() != 42 {
		t.Fatal("point stats")
	}
}

func TestBimodal(t *testing.T) {
	d, err := Bimodal(700, 2000, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, d.Prob(0), 0.2, 1e-12, "low arm")
	approx(t, d.Mean(), 0.2*700+0.8*2000, 1e-9, "mean")
	if d.Mode() != 2000 {
		t.Fatal("mode must be the likely arm")
	}
	// Degenerate probabilities collapse to a point.
	for _, tc := range []struct{ p, want float64 }{{0, 2000}, {1, 700}} {
		d, err := Bimodal(700, 2000, tc.p)
		if err != nil || d.Len() != 1 || d.Value(0) != tc.want {
			t.Fatalf("Bimodal p=%v: %v %v", tc.p, d, err)
		}
	}
	for _, bad := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := Bimodal(1, 2, bad); !errors.Is(err, ErrBadDist) {
			t.Fatalf("Bimodal(%v) should fail", bad)
		}
	}
}

func TestUniform(t *testing.T) {
	d, err := Uniform(64, 256, 1024, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.Len(); i++ {
		approx(t, d.Prob(i), 0.25, 1e-12, "uniform mass")
	}
	if _, err := Uniform(); !errors.Is(err, ErrBadDist) {
		t.Fatal("empty uniform should fail")
	}
}

func TestZipf(t *testing.T) {
	levels := []float64{64, 256, 1024, 4096}
	d, err := Zipf(levels, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 4 {
		t.Fatalf("len %d", d.Len())
	}
	for i := 1; i < d.Len(); i++ {
		if !(d.Prob(i) < d.Prob(i-1)) {
			t.Fatal("Zipf mass must decrease with rank")
		}
	}
	// s=0 degenerates to uniform.
	u, err := Zipf(levels, 0)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, u.Prob(3), 0.25, 1e-12, "s=0 uniform")
	if _, err := Zipf(nil, 1); !errors.Is(err, ErrBadDist) {
		t.Fatal("empty levels should fail")
	}
	if _, err := Zipf(levels, -1); !errors.Is(err, ErrBadDist) {
		t.Fatal("negative exponent should fail")
	}
}

func TestSpreadAround(t *testing.T) {
	d, err := SpreadAround(1000, 900, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 || d.Value(0) != 100 || d.Value(1) != 1000 || d.Value(2) != 1900 {
		t.Fatalf("support: %v", d)
	}
	approx(t, d.Prob(1), 0.4, 1e-12, "center mass")
	approx(t, d.Prob(0), 0.3, 1e-12, "arm mass")
	approx(t, d.Mean(), 1000, 1e-9, "symmetric arms keep the mean")

	point, err := SpreadAround(500, 0, 0.5)
	if err != nil || point.Len() != 1 {
		t.Fatalf("zero width should be a point: %v %v", point, err)
	}
	if _, err := SpreadAround(100, 200, 0.5); !errors.Is(err, ErrBadDist) {
		t.Fatal("non-positive low arm should fail")
	}
	if _, err := SpreadAround(100, 50, 2); !errors.Is(err, ErrBadDist) {
		t.Fatal("bad pCenter should fail")
	}
	if _, err := SpreadAround(100, -1, 0.5); !errors.Is(err, ErrBadDist) {
		t.Fatal("negative width should fail")
	}
}

func TestEquiWidth(t *testing.T) {
	d, err := EquiWidth(0, 100, 4, func(c float64) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 4 {
		t.Fatalf("len %d", d.Len())
	}
	// Cell centers of [0,25), [25,50), ...
	if d.Value(0) != 12.5 || d.Value(3) != 87.5 {
		t.Fatalf("centers: %v", d)
	}
	// Weight function shapes the law.
	ramp, err := EquiWidth(2, 5000, 400, func(c float64) float64 { return 1 + c/5000 })
	if err != nil || ramp.Len() != 400 {
		t.Fatalf("ramp: %v", err)
	}
	if !(ramp.Prob(399) > ramp.Prob(0)) {
		t.Fatal("increasing weight function must tilt the law")
	}
	if _, err := EquiWidth(0, 100, 0, func(float64) float64 { return 1 }); !errors.Is(err, ErrBadDist) {
		t.Fatal("zero buckets should fail")
	}
	if _, err := EquiWidth(5, 5, 3, func(float64) float64 { return 1 }); !errors.Is(err, ErrBadDist) {
		t.Fatal("empty range should fail")
	}
}

// --- accessors and statistics -------------------------------------------

func TestZeroDist(t *testing.T) {
	var z Dist
	if !z.IsZero() || z.Len() != 0 {
		t.Fatal("zero law")
	}
	if z.Min() != 0 || z.Max() != 0 || z.Mode() != 0 || z.Mean() != 0 {
		t.Fatal("zero law stats")
	}
	if z.String() != "{}" {
		t.Fatalf("zero law string %q", z.String())
	}
	if Point(1).IsZero() {
		t.Fatal("point law is not zero")
	}
}

func TestStatsAgainstHand(t *testing.T) {
	d := MustNew([]float64{10, 20, 70}, []float64{1, 2, 1})
	approx(t, d.Mean(), (10+40+70)/4.0, 1e-12, "mean")
	variance := (math.Pow(10-30, 2) + 2*math.Pow(20-30, 2) + math.Pow(70-30, 2)) / 4
	approx(t, d.Std(), math.Sqrt(variance), 1e-12, "std")
	if d.Mode() != 20 {
		t.Fatal("mode")
	}
	if d.Min() != 10 || d.Max() != 70 {
		t.Fatal("min/max")
	}
	if got := d.Support(); len(got) != 3 || got[0] != 10 || got[2] != 70 {
		t.Fatalf("support %v", got)
	}
	// Support returns a copy — mutating it must not corrupt the law.
	s := d.Support()
	s[0] = -1
	if d.Value(0) != 10 {
		t.Fatal("Support leaked internal state")
	}
}

func TestModeTieGoesToSmallestValue(t *testing.T) {
	d := MustNew([]float64{700, 2000}, []float64{0.5, 0.5})
	if d.Mode() != 700 {
		t.Fatalf("tied mode should be the contended (low) state, got %v", d.Mode())
	}
}

func TestPrAtMostAndBetween(t *testing.T) {
	d := MustNew([]float64{700, 2000}, []float64{0.2, 0.8})
	approx(t, d.PrAtMost(699), 0, 0, "below support")
	approx(t, d.PrAtMost(700), 0.2, 1e-12, "inclusive")
	approx(t, d.PrAtMost(1999), 0.2, 1e-12, "between")
	approx(t, d.PrAtMost(2000), 1, 1e-12, "all")
	approx(t, d.PrAtMost(2000)-d.PrAtMost(700), 0.8, 1e-12, "half-open interval")
}

func TestExpectF(t *testing.T) {
	d := MustNew([]float64{1, 2, 3}, []float64{1, 1, 2})
	got := d.ExpectF(func(v float64) float64 { return v * v })
	approx(t, got, (1+4+2*9)/4.0, 1e-12, "E[X^2]")
	approx(t, d.ExpectF(func(v float64) float64 { return v }), d.Mean(), 1e-12, "E[X] = Mean")
}

func TestSampleMatchesLaw(t *testing.T) {
	d := MustNew([]float64{700, 2000}, []float64{0.2, 0.8})
	rng := rand.New(rand.NewSource(7))
	lows := 0
	const n = 100000
	for i := 0; i < n; i++ {
		switch v := d.Sample(rng); v {
		case 700:
			lows++
		case 2000:
		default:
			t.Fatalf("sampled off-support value %v", v)
		}
	}
	approx(t, float64(lows)/n, 0.2, 0.01, "sampling frequency")
}

// --- transformations -----------------------------------------------------

func TestMapMergesCollisions(t *testing.T) {
	d := MustNew([]float64{1, 5, 9}, []float64{1, 1, 2})
	clamped, err := d.Map(func(v float64) float64 { return math.Max(v, 5) })
	if err != nil {
		t.Fatal(err)
	}
	if clamped.Len() != 2 {
		t.Fatalf("clamp should merge: %v", clamped)
	}
	approx(t, clamped.Prob(0), 0.5, 1e-12, "merged mass at clamp floor")
	approx(t, clamped.TotalMass(), 1, 1e-12, "mass preserved")
	// The receiver is untouched (immutability).
	if d.Len() != 3 || d.Value(0) != 1 {
		t.Fatal("Map mutated its receiver")
	}
}

func TestShift(t *testing.T) {
	d := MustNew([]float64{10, 20}, []float64{1, 3})
	s, err := d.Map(func(v float64) float64 { return v + 5 })
	if err != nil {
		t.Fatal(err)
	}
	if s.Value(0) != 15 || s.Value(1) != 25 {
		t.Fatalf("shifted support %v", s)
	}
	approx(t, s.Mean(), d.Mean()+5, 1e-12, "mean shifts")
	approx(t, s.Std(), d.Std(), 1e-12, "std invariant under shift")
}

func TestRebucketPreservesMassAndMean(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		d := randLaw(rng, 1+rng.Intn(200), 2, 1e5)
		for _, b := range []int{1, 2, 3, 7, 27, 64} {
			r, err := d.Rebucket(b)
			if err != nil {
				t.Fatal(err)
			}
			if r.Len() > b {
				t.Fatalf("b=%d: got %d buckets", b, r.Len())
			}
			approx(t, r.TotalMass(), 1, 1e-9, "mass")
			approx(t, r.Mean(), d.Mean(), 1e-6*math.Max(1, d.Mean()), "mean")
		}
	}
}

func TestRebucketPassThroughAndErrors(t *testing.T) {
	d := MustNew([]float64{1, 2}, []float64{1, 1})
	r, err := d.Rebucket(5)
	if err != nil || !r.ApproxEqual(d, 0) {
		t.Fatalf("small laws pass through: %v %v", r, err)
	}
	if _, err := d.Rebucket(0); !errors.Is(err, ErrBadTarget) {
		t.Fatal("target 0 should fail with ErrBadTarget")
	}
	if _, err := d.Rebucket(-3); !errors.Is(err, ErrBadTarget) {
		t.Fatal("negative target should fail")
	}
}

func TestApproxEqual(t *testing.T) {
	a := MustNew([]float64{1, 2}, []float64{1, 1})
	b := MustNew([]float64{1, 2.0000001}, []float64{1, 1})
	if !a.ApproxEqual(a, 0) {
		t.Fatal("self equality")
	}
	if a.ApproxEqual(b, 0) {
		t.Fatal("exact comparison must see the value drift")
	}
	if !a.ApproxEqual(b, 1e-6) {
		t.Fatal("tolerant comparison must accept the drift")
	}
	if a.ApproxEqual(Point(1), 1) {
		t.Fatal("different lengths are never equal")
	}
}

func TestString(t *testing.T) {
	s := MustNew([]float64{700, 2000}, []float64{0.2, 0.8}).String()
	if !strings.Contains(s, "700:0.2") || !strings.Contains(s, "2000:0.8") {
		t.Fatalf("String() = %q", s)
	}
}

// --- combinators ---------------------------------------------------------

func TestExpect2And3(t *testing.T) {
	a := MustNew([]float64{1, 2}, []float64{1, 1})
	b := MustNew([]float64{10, 20}, []float64{3, 1})
	mul := func(x, y float64) float64 { return x * y }
	approx(t, Expect2(a, b, mul), a.Mean()*b.Mean(), 1e-12, "independence factorizes E[XY]")
	c := MustNew([]float64{0.5, 1.5}, []float64{1, 1})
	got := Expect3(a, b, c, func(x, y, z float64) float64 { return x * y * z })
	approx(t, got, a.Mean()*b.Mean()*c.Mean(), 1e-12, "E[XYZ]")
	// Non-multiplicative f: check against direct enumeration.
	sum := Expect2(a, b, func(x, y float64) float64 { return x + y })
	approx(t, sum, a.Mean()+b.Mean(), 1e-12, "E[X+Y]")
}

func TestCombine2And3ProductLaw(t *testing.T) {
	a := MustNew([]float64{10, 20}, []float64{0.5, 0.5})
	b := MustNew([]float64{100, 200}, []float64{0.5, 0.5})
	prod, err := Combine2(a, b, func(x, y float64) float64 { return x * y })
	if err != nil {
		t.Fatal(err)
	}
	// Products: 1000, 2000, 2000, 4000 → merged middle.
	if prod.Len() != 3 {
		t.Fatalf("len %d", prod.Len())
	}
	approx(t, prod.Prob(1), 0.5, 1e-12, "merged middle mass")
	approx(t, prod.Mean(), a.Mean()*b.Mean(), 1e-9, "product mean")

	s := Point(0.01)
	triple, err := Combine3(a, b, s, func(x, y, z float64) float64 { return x * y * z })
	if err != nil {
		t.Fatal(err)
	}
	approx(t, triple.Mean(), a.Mean()*b.Mean()*0.01, 1e-9, "triple product mean")
	approx(t, triple.TotalMass(), 1, 1e-12, "mass")
}

func TestQuickCombineConsistentWithExpect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randLaw(rng, 1+rng.Intn(6), 1, 100)
		b := randLaw(rng, 1+rng.Intn(6), 1, 100)
		mul := func(x, y float64) float64 { return x * y }
		law, err := Combine2(a, b, mul)
		return err == nil && math.Abs(law.Mean()-Expect2(a, b, mul)) <= 1e-9*math.Max(1, law.Mean())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- distances -----------------------------------------------------------

func TestTotalVariationAxioms(t *testing.T) {
	a := MustNew([]float64{0, 10}, []float64{0.5, 0.5})
	b := MustNew([]float64{0, 10}, []float64{0.9, 0.1})
	if TotalVariation(a, a) != 0 {
		t.Fatal("TV(a,a) = 0")
	}
	approx(t, TotalVariation(a, b), 0.4, 1e-12, "TV on shared support")
	approx(t, TotalVariation(a, b), TotalVariation(b, a), 0, "symmetry")
	disjoint := Point(100)
	approx(t, TotalVariation(a, disjoint), 1, 1e-12, "disjoint supports")
}

func TestQuickTotalVariationRangeAndTriangle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randLaw(rng, 1+rng.Intn(8), 0, 50)
		b := randLaw(rng, 1+rng.Intn(8), 0, 50)
		c := randLaw(rng, 1+rng.Intn(8), 0, 50)
		ab, ba := TotalVariation(a, b), TotalVariation(b, a)
		if math.Abs(ab-ba) > 1e-12 || ab < 0 || ab > 1+1e-12 {
			return false
		}
		return ab <= TotalVariation(a, c)+TotalVariation(c, b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWassersteinPointMasses(t *testing.T) {
	if d := Wasserstein1(Point(3), Point(11)); math.Abs(d-8) > 1e-12 {
		t.Fatalf("W1 of disjoint point masses must be |x-y|: %v", d)
	}
	if d := Wasserstein1(Point(5), Point(5)); d != 0 {
		t.Fatalf("W1 self = %v", d)
	}
	a := MustNew([]float64{0, 10}, []float64{0.5, 0.5})
	approx(t, Wasserstein1(a, Point(5)), 5, 1e-12, "each half moves 5")
	b := MustNew([]float64{0, 10}, []float64{0.9, 0.1})
	approx(t, Wasserstein1(a, b), 4, 1e-12, "0.4 mass moved 10 units")
}

func TestQuickWassersteinMetricAxioms(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randLaw(rng, 1+rng.Intn(8), 0, 100)
		b := randLaw(rng, 1+rng.Intn(8), 0, 100)
		c := randLaw(rng, 1+rng.Intn(8), 0, 100)
		ab, ba := Wasserstein1(a, b), Wasserstein1(b, a)
		if math.Abs(ab-ba) > 1e-9 || ab < 0 {
			return false
		}
		if Wasserstein1(a, a) > 1e-12 {
			return false
		}
		return ab <= Wasserstein1(a, c)+Wasserstein1(c, b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDistancesDisagreeOnSupportDrift pins why the package exports BOTH
// metrics: nudging a bucket's value slightly is invisible to TV's
// pointwise comparison (maximal distance) but nearly free for W1 — the
// property the parametric plan cache's nearest-law lookup relies on.
func TestDistancesDisagreeOnSupportDrift(t *testing.T) {
	a := Point(1000)
	b := Point(1001)
	approx(t, TotalVariation(a, b), 1, 1e-12, "TV sees disjoint supports as maximally far")
	approx(t, Wasserstein1(a, b), 1, 1e-12, "W1 sees a 1-unit move as cheap")
}

// TestSortFuncPermutationIsSortSlice backs New's switch from sort.Slice to
// slices.SortFunc: on inputs full of equal keys — where an unstable sort is
// free to order them either way, and the order decides the bits of the
// merged probabilities — both sorts leave the same permutation.
func TestSortFuncPermutationIsSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(200)
		keys := make([]float64, n)
		distinct := 1 + rng.Intn(8)
		for i := range keys {
			keys[i] = float64(rng.Intn(distinct))
		}
		a, b := make([]int, n), make([]int, n)
		for i := range a {
			a[i], b[i] = i, i
		}
		sort.Slice(a, func(x, y int) bool { return keys[a[x]] < keys[a[y]] })
		slices.SortFunc(b, func(x, y int) int {
			switch {
			case keys[x] < keys[y]:
				return -1
			case keys[y] < keys[x]:
				return 1
			}
			return 0
		})
		if !slices.Equal(a, b) {
			t.Fatalf("trial %d (n=%d): sort.Slice %v, slices.SortFunc %v", trial, n, a, b)
		}
	}
}

// TotalVariation returns the total-variation distance
// ½·Σ_v |Pr_a(v) - Pr_b(v)| ∈ [0, 1] over the union support. It measures
// the bucketing error of Section 3.7 pointwise: 1 means disjoint laws.
func TotalVariation(a, b Dist) float64 {
	i, j := 0, 0
	sum := 0.0
	for i < a.Len() || j < b.Len() {
		switch {
		case j >= b.Len() || (i < a.Len() && a.vals[i] < b.vals[j]):
			sum += a.probs[i]
			i++
		case i >= a.Len() || b.vals[j] < a.vals[i]:
			sum += b.probs[j]
			j++
		default: // equal values
			sum += math.Abs(a.probs[i] - b.probs[j])
			i++
			j++
		}
	}
	return sum / 2
}

// TestZipfBitsPinned pins every Zipf probability to the bit, for the two
// laws the repo builds — StandardEnvs' zipf-levels (s = 1.2) and the
// serving mix's query popularity (12 queries, s = 1.1) — and one
// fractional exponent. Zipf's weights go through math.Pow, which reaches
// math.Exp, and amd64 builds math.Exp from assembly: math.Pow(2, 1.2)
// differs in its last bit between amd64 and 386, so this pin fails under
// GOARCH=386 (2 of its 19 probabilities) until the weights are computed
// without math.Pow (ROADMAP 16(c)). A platform that rounds one weight
// differently fails here, where the law is made, rather than deep inside
// an artifact built on it.
func TestZipfBitsPinned(t *testing.T) {
	ids := make([]float64, 12)
	for i := range ids {
		ids[i] = float64(i)
	}
	for _, tc := range []struct {
		levels []float64
		s      float64
		bits   []uint64
	}{
		{[]float64{64, 256, 1024, 4096}, 1.2, []uint64{
			0x3fe0e913a15e2ded, 0x3fcd715c3bbb7a2f, 0x3fc21981a15344ba, 0x3fb9a1a73af112c2}},
		{ids, 1.1, []uint64{
			0x3fd6b8c6fcd7b5d4, 0x3fc5333ec0432b49, 0x3fbb24c9ab3fc2f6, 0x3fb3c7cc7af5e3e6,
			0x3faef3499e47b5c4, 0x3fa95372bfda6b78, 0x3fa5603ba4cf1dac, 0x3fa274b0f8ddc8b4,
			0x3fa0368cd4fe75bf, 0x3f9ce0b04f01f886, 0x3f9a00e03fb682c5, 0x3f97a145674136ad}},
		{[]float64{700, 2000, 5000}, 0.5, []uint64{
			0x3fdc03f1e255d74c, 0x3fd3cf54b23cf5c4, 0x3fd02cb96b6d32f1}},
	} {
		d, err := Zipf(tc.levels, tc.s)
		if err != nil {
			t.Fatal(err)
		}
		if d.Len() != len(tc.bits) {
			t.Fatalf("Zipf(%v, %v) has %d levels, want %d", tc.levels, tc.s, d.Len(), len(tc.bits))
		}
		for i, want := range tc.bits {
			if _, p := d.At(i); math.Float64bits(p) != want {
				t.Errorf("Zipf(%v, %v) level %d: p = %v (%#016x), want %v (%#016x)",
					tc.levels, tc.s, i, p, math.Float64bits(p), math.Float64frombits(want), want)
			}
		}
	}
}

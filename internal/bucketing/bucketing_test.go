package bucketing

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lecopt/internal/cost"
	"lecopt/internal/dist"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v", msg, got, want)
	}
}

func fineLaw(n int, lo, hi float64, seed int64) dist.Dist {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	probs := make([]float64, n)
	for i := range vals {
		vals[i] = lo + (hi-lo)*float64(i)/float64(n-1)
		probs[i] = rng.Float64() + 0.01
	}
	return dist.MustNew(vals, probs)
}

func TestCoarsenValidation(t *testing.T) {
	law := fineLaw(10, 0, 100, 1)
	if _, err := Coarsen(law, 0, Uniform, nil); !errors.Is(err, errBadBuckets) {
		t.Fatal("zero buckets")
	}
	if _, err := Coarsen(law, 3, Strategy(99), nil); !errors.Is(err, errBadBuckets) {
		t.Fatal("unknown strategy")
	}
	small, err := Coarsen(law, 20, Uniform, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !small.ApproxEqual(law, 0) {
		t.Fatal("already-small laws pass through")
	}
}

func TestCoarsenPreservesMassAndMean(t *testing.T) {
	law := fineLaw(200, 2, 5000, 7)
	bounds := Boundaries(cost.PaperMethods, [][2]float64{{1e6, 4e5}}, []float64{3000})
	for _, strat := range []Strategy{Uniform, Quantile, LevelSet} {
		for _, b := range []int{1, 2, 3, 5, 8, 16} {
			c, err := Coarsen(law, b, strat, bounds)
			if err != nil {
				t.Fatalf("%v b=%d: %v", strat, b, err)
			}
			if c.Len() > b {
				t.Fatalf("%v b=%d: got %d buckets", strat, b, c.Len())
			}
			approx(t, c.TotalMass(), 1, 1e-9, "mass")
			approx(t, c.Mean(), law.Mean(), 1e-6*law.Mean(), "mean")
		}
	}
}

// TestLevelSetExactWithFewBuckets is the heart of E14: if buckets align
// with the cost formula's level sets, the expected cost computed from the
// coarse law is EXACT, no matter how few buckets — whereas uniform
// bucketing at the same budget is generally wrong.
func TestLevelSetExactWithFewBuckets(t *testing.T) {
	const a, b = 1_000_000.0, 400_000.0
	law := fineLaw(400, 2, 5000, 11)
	f := func(m float64) float64 { return cost.JoinIOModel(cost.ModelPaper, cost.SortMerge, a, b, m) }
	exact := law.ExpectF(f)

	bounds := Boundaries([]cost.JoinMethod{cost.SortMerge}, [][2]float64{{a, b}}, nil)
	// Sort-merge has 3 level sets in memory → 3 buckets suffice.
	levelSet, err := Coarsen(law, 3, LevelSet, bounds)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, levelSet.ExpectF(f), exact, 1e-6*exact, "level-set EC exact at b=3")

	uniform, err := Coarsen(law, 3, Uniform, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(uniform.ExpectF(f)-exact) < 1e-6*exact {
		t.Fatal("uniform bucketing at b=3 should NOT be exact on this law (breakpoints at 100 and 1000 don't align)")
	}
}

// TestUniformConvergesWithBuckets: uniform error shrinks as b grows.
func TestUniformConvergesWithBuckets(t *testing.T) {
	const a, b = 1_000_000.0, 400_000.0
	law := fineLaw(512, 2, 5000, 13)
	f := func(m float64) float64 { return cost.JoinIOModel(cost.ModelPaper, cost.SortMerge, a, b, m) }
	exact := law.ExpectF(f)
	errAt := func(buckets int) float64 {
		c, err := Coarsen(law, buckets, Uniform, nil)
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(c.ExpectF(f) - exact)
	}
	if !(errAt(256) <= errAt(4)+1e-9) {
		t.Fatalf("uniform bucketing error should shrink: b=4 err %v, b=256 err %v", errAt(4), errAt(256))
	}
}

func TestSelectCutsFiltersAndBounds(t *testing.T) {
	cuts := selectCuts([]float64{5, 50, 500, 5, 5000}, 1, 1000, 2)
	if len(cuts) != 2 {
		t.Fatalf("cuts = %v", cuts)
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			t.Fatal("cuts must ascend")
		}
	}
	// Out-of-range and duplicate boundaries dropped.
	cuts = selectCuts([]float64{0.5, 2000}, 1, 1000, 5)
	if len(cuts) != 0 {
		t.Fatalf("out-of-range cuts = %v", cuts)
	}
}

func TestCoarsenByCutsBoundaryMembership(t *testing.T) {
	// Value exactly at a cut belongs to the lower cell.
	law := dist.MustNew([]float64{10, 20, 30}, []float64{1, 1, 1})
	c, err := CoarsenByCuts(law, []float64{20})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("cells = %d", c.Len())
	}
	// Lower cell holds {10, 20} → mass 2/3, mean 15.
	approx(t, c.Prob(0), 2.0/3, 1e-12, "lower mass")
	approx(t, c.Value(0), 15, 1e-12, "lower representative")
}

func TestBoundariesComposition(t *testing.T) {
	bs := Boundaries(cost.PaperMethods, [][2]float64{{1000, 100}}, []float64{50})
	if len(bs) == 0 {
		t.Fatal("no boundaries")
	}
	// Must include PageNL's S+2 breakpoint.
	found := false
	for _, b := range bs {
		if b == 102 {
			found = true
		}
	}
	if !found {
		t.Fatalf("S+2 breakpoint missing from %v", bs)
	}
	if got := Boundaries(nil, nil, nil); len(got) != 0 {
		t.Fatal("empty inputs yield no boundaries")
	}
}

func TestStrategyString(t *testing.T) {
	if Uniform.String() != "uniform" || Quantile.String() != "quantile" || LevelSet.String() != "level-set" {
		t.Fatal("strategy strings")
	}
	if Strategy(9).String() != "unknown" {
		t.Fatal("unknown strategy string")
	}
}

package parametric

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lecopt/internal/dist"
	"lecopt/internal/optimizer"
	"lecopt/internal/workload"
)

func testScenario(t *testing.T, seed int64, n int) workload.Scenario {
	t.Helper()
	sc, err := workload.Generate(workload.DefaultSpec(n, workload.Chain), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestPrecomputeValidation(t *testing.T) {
	sc := testScenario(t, 1, 3)
	if _, err := Precompute(sc.Cat, sc.Block, optimizer.Options{}, nil); !errors.Is(err, errEmptyCache) {
		t.Fatal("empty laws")
	}
	empty := &Cache{}
	if _, err := empty.Nearest(dist.Point(1)); !errors.Is(err, ErrNoEntry) {
		t.Fatal("empty nearest")
	}
	if _, _, err := empty.SelectByEC(dist.Point(1)); !errors.Is(err, ErrNoEntry) {
		t.Fatal("empty select")
	}
}

func TestPrecomputeAndLookup(t *testing.T) {
	sc := testScenario(t, 2, 4)
	laws, err := CoverageGrid(64, 2048, []float64{0, 0.1, 0.25, 0.5, 0.75, 1})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := Precompute(sc.Cat, sc.Block, optimizer.Options{}, laws)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 6 {
		t.Fatalf("entries = %d", cache.Len())
	}
	if cache.Plans() < 1 || cache.Plans() > 6 {
		t.Fatalf("plans = %d", cache.Plans())
	}
	if got := len(cache.Entries()); got != 6 {
		t.Fatalf("Entries len = %d", got)
	}

	// Looking up an anticipated law exactly returns its own entry.
	for _, law := range laws {
		e, err := cache.Nearest(law)
		if err != nil {
			t.Fatal(err)
		}
		if dist.Wasserstein1(e.Law, law) > 1e-12 {
			t.Fatalf("exact law lookup drifted: %v vs %v", e.Law, law)
		}
	}
}

// TestSelectByECMatchesFullOptimization: when the actual law is one of the
// anticipated ones, re-costing the cached candidates returns exactly the
// fully-optimized expected cost.
func TestSelectByECMatchesFullOptimization(t *testing.T) {
	sc := testScenario(t, 3, 4)
	laws, err := CoverageGrid(64, 2048, []float64{0, 0.25, 0.5, 0.75, 1})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := Precompute(sc.Cat, sc.Block, optimizer.Options{}, laws)
	if err != nil {
		t.Fatal(err)
	}
	for _, law := range laws {
		_, ec, err := cache.SelectByEC(law)
		if err != nil {
			t.Fatal(err)
		}
		full, err := optimizer.AlgorithmC(sc.Cat, sc.Block, optimizer.Options{}, law)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ec-full.EC) > 1e-9*math.Max(1, full.EC) {
			t.Fatalf("cached %v vs full %v", ec, full.EC)
		}
	}
}

// TestSelectByECNearOptimalOffGrid: for laws BETWEEN grid points, the
// cached selection should be close to (and never better than) the full
// optimization.
func TestSelectByECNearOptimalOffGrid(t *testing.T) {
	sc := testScenario(t, 4, 4)
	laws, err := CoverageGrid(64, 2048, []float64{0, 0.2, 0.4, 0.6, 0.8, 1})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := Precompute(sc.Cat, sc.Block, optimizer.Options{}, laws)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(44))
	worst := 1.0
	for i := 0; i < 25; i++ {
		actual, err := dist.Bimodal(64, 2048, rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		_, ec, err := cache.SelectByEC(actual)
		if err != nil {
			t.Fatal(err)
		}
		full, err := optimizer.AlgorithmC(sc.Cat, sc.Block, optimizer.Options{}, actual)
		if err != nil {
			t.Fatal(err)
		}
		ratio := ec / full.EC
		if ratio < 1-1e-9 {
			t.Fatalf("cache cannot beat full optimization: %v", ratio)
		}
		if ratio > worst {
			worst = ratio
		}
	}
	if worst > 1.25 {
		t.Fatalf("off-grid regret too large: %v", worst)
	}
}

// TestNearestDegradesGracefully: the constant-time lookup is allowed to be
// worse than SelectByEC but must stay sane on-grid.
func TestNearestDegradesGracefully(t *testing.T) {
	sc := testScenario(t, 5, 3)
	laws, err := CoverageGrid(64, 2048, []float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := Precompute(sc.Cat, sc.Block, optimizer.Options{}, laws)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := dist.Bimodal(64, 2048, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	e, err := cache.Nearest(probe)
	if err != nil {
		t.Fatal(err)
	}
	// 0.45 is closest to the p=0.5 grid law.
	if math.Abs(e.Law.PrAtMost(64)-0.5) > 1e-9 {
		t.Fatalf("nearest picked %v", e.Law)
	}
}

func TestCoverageGridValidation(t *testing.T) {
	if _, err := CoverageGrid(1, 2, nil); !errors.Is(err, errEmptyCache) {
		t.Fatal("empty grid")
	}
	if _, err := CoverageGrid(1, 2, []float64{2}); err == nil {
		t.Fatal("invalid probability")
	}
}

func TestWassersteinProperties(t *testing.T) {
	a := dist.MustNew([]float64{0, 10}, []float64{0.5, 0.5})
	b := dist.MustNew([]float64{0, 10}, []float64{0.9, 0.1})
	c := dist.MustNew([]float64{5}, []float64{1})
	if d := dist.Wasserstein1(a, a); d != 0 {
		t.Fatalf("self distance %v", d)
	}
	dab := dist.Wasserstein1(a, b)
	dba := dist.Wasserstein1(b, a)
	if math.Abs(dab-dba) > 1e-12 {
		t.Fatal("not symmetric")
	}
	// Mass 0.4 moved by 10 units.
	if math.Abs(dab-4) > 1e-9 {
		t.Fatalf("W1(a,b) = %v, want 4", dab)
	}
	// Point law at the midpoint: each half moves 5 units.
	if d := dist.Wasserstein1(a, c); math.Abs(d-5) > 1e-9 {
		t.Fatalf("W1(a,c) = %v, want 5", d)
	}
	// Triangle inequality on this trio.
	if dist.Wasserstein1(a, b) > dist.Wasserstein1(a, c)+dist.Wasserstein1(c, b)+1e-9 {
		t.Fatal("triangle inequality violated")
	}

}

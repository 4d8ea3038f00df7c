package experiments

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/optimizer"
	"lecopt/internal/plan"
)

// pointCost is costAt, failing the test on error.
func pointCost(t testing.TB, p *plan.Node, m float64) float64 {
	t.Helper()
	c, err := costAt(p, m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// lawEC is the evaluator's dense EC under a static law: one expectation
// per operator over every bucket.
func lawEC(t testing.TB, p *plan.Node, mem dist.Dist) float64 {
	t.Helper()
	c, err := optimizer.ExpectedCostModel(cost.ModelPaper, p, []dist.Dist{mem})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// lsPlan builds sort(SM(a,b) GH c) with chosen page sizes.
func lsPlan() *plan.Node {
	a := plan.NewScan("a", plan.AccessHeap, "", 1, 10_000)
	b := plan.NewScan("b", plan.AccessHeap, "", 1, 4_000)
	j1 := plan.NewJoin(cost.SortMerge, a, b, 2_000, plan.Order{})
	c := plan.NewScan("c", plan.AccessHeap, "", 1, 500)
	j2 := plan.NewJoin(cost.GraceHash, j1, c, 300, plan.Order{})
	return plan.NewSort(j2, plan.Order{Table: "a", Column: "k"})
}

func TestPlanBreakpoints(t *testing.T) {
	p := lsPlan()
	breaks, err := planBreakpoints(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(breaks) == 0 {
		t.Fatal("no breakpoints")
	}
	for i := 1; i < len(breaks); i++ {
		if breaks[i] <= breaks[i-1] {
			t.Fatal("not ascending")
		}
	}
	// The cost is constant within regions and changes across at least one
	// boundary.
	changed := false
	for i := 0; i <= len(breaks); i++ {
		lo, hi := regionBounds(breaks, i)
		if hi-lo < 2 {
			continue
		}
		c1 := pointCost(t, p, lo+(hi-lo)*0.25)
		c2 := pointCost(t, p, lo+(hi-lo)*0.75)
		if c1 != c2 {
			t.Fatalf("cost not constant within region %d [%v,%v): %v vs %v", i, lo, hi, c1, c2)
		}
		if i > 0 {
			prevLo, prevHi := regionBounds(breaks, i-1)
			if prevHi-prevLo >= 2 && pointCost(t, p, prevLo+(prevHi-prevLo)*0.5) != c1 {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("no region transition changed the cost")
	}
	if _, err := planBreakpoints(nil, 4); !errors.Is(err, plan.ErrNilNode) {
		t.Fatal("nil plan")
	}
	if _, err := planBreakpoints(&plan.Node{Kind: plan.KindJoin}, 4); err == nil {
		t.Fatal("invalid plan")
	}
}

func regionBounds(breaks []float64, i int) (lo, hi float64) {
	lo, hi = 3, 1e6
	if i > 0 {
		lo = breaks[i-1]
	}
	if i < len(breaks) {
		hi = breaks[i]
	}
	return lo, hi
}

// TestPlanECLevelSetsExact: the level-set evaluation equals the dense
// per-bucket evaluation for laws of any size, while evaluating the cost
// function at most once per level set.
func TestPlanECLevelSetsExact(t *testing.T) {
	p := lsPlan()
	breaks, err := planBreakpoints(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, b := range []int{1, 5, 50, 500} {
		vals := make([]float64, b)
		probs := make([]float64, b)
		for i := range vals {
			vals[i] = 3 + rng.Float64()*20000
			probs[i] = rng.Float64() + 0.01
		}
		mem := dist.MustNew(vals, probs)
		want := lawEC(t, p, mem)
		got, evals, err := planECLevelSets(p, mem, 8)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("b=%d: level-set %v vs dense %v", b, got, want)
		}
		if evals > len(breaks)+1 {
			t.Fatalf("b=%d: %d evals exceed %d level sets", b, evals, len(breaks)+1)
		}
		if b >= 50 && evals >= b {
			t.Fatalf("b=%d: no savings (%d evals)", b, evals)
		}
	}
}

// TestPlanECLevelSetsPointLaw: degenerate law → one evaluation.
func TestPlanECLevelSetsPointLaw(t *testing.T) {
	p := lsPlan()
	ec, evals, err := planECLevelSets(p, dist.Point(1500), 8)
	if err != nil {
		t.Fatal(err)
	}
	if evals != 1 {
		t.Fatalf("evals = %d", evals)
	}
	if ec != pointCost(t, p, 1500) {
		t.Fatalf("ec %v vs direct %v", ec, pointCost(t, p, 1500))
	}
}

// Property: equality holds for random two-join plans and random laws.
func TestQuickLevelSetsEqualDense(t *testing.T) {
	f := func(pa, pb, pc uint16, seed int64) bool {
		ap := float64(pa%5000) + 10
		bp := float64(pb%5000) + 10
		cp := float64(pc%2000) + 10
		a := plan.NewScan("a", plan.AccessHeap, "", 1, ap)
		b := plan.NewScan("b", plan.AccessHeap, "", 1, bp)
		j1 := plan.NewJoin(cost.GraceHash, a, b, (ap+bp)/4, plan.Order{})
		c := plan.NewScan("c", plan.AccessHeap, "", 1, cp)
		j2 := plan.NewJoin(cost.PageNL, j1, c, cp/2, plan.Order{})
		root := plan.NewSort(j2, plan.Order{Table: "a", Column: "k"})

		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		vals := make([]float64, n)
		probs := make([]float64, n)
		for i := range vals {
			vals[i] = 3 + rng.Float64()*12000
			probs[i] = rng.Float64() + 0.01
		}
		mem := dist.MustNew(vals, probs)
		want := lawEC(t, root, mem)
		got, _, err := planECLevelSets(root, mem, 8)
		if err != nil {
			return false
		}
		return math.Abs(got-want) <= 1e-9*math.Max(1, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLevelSetsWithBlockNL: exact when block counts stay within the cap.
func TestLevelSetsWithBlockNL(t *testing.T) {
	a := plan.NewScan("a", plan.AccessHeap, "", 1, 50)
	b := plan.NewScan("b", plan.AccessHeap, "", 1, 30)
	j := plan.NewJoin(cost.BlockNL, a, b, 10, plan.Order{})
	// Law confined to memory ≥ 2 + 50/8: block counts k ≤ 8 within cap 8.
	mem := dist.MustNew([]float64{9, 12, 20, 60}, []float64{1, 1, 1, 1})
	want := lawEC(t, j, mem)
	got, _, err := planECLevelSets(j, mem, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("blocknl level sets: %v vs %v", got, want)
	}
}

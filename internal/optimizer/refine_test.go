package optimizer

import (
	"math"
	"math/rand"
	"testing"

	"lecopt/internal/cost"
	"lecopt/internal/dist"
)

// fineLaw builds a b-bucket law over [3, 5000].
func fineLaw(rng *rand.Rand, b int) dist.Dist {
	vals := make([]float64, b)
	probs := make([]float64, b)
	for i := range vals {
		vals[i] = 3 + rng.Float64()*5000
		probs[i] = rng.Float64() + 0.01
	}
	return dist.MustNew(vals, probs)
}

// TestRefinedReachesFullResolutionIsExact: with an impossible stability
// requirement the refinement runs to the full law and must equal
// Algorithm C exactly.
func TestRefinedReachesFullResolutionIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 10; trial++ {
		sc := randScenario(rng, 2+rng.Intn(3))
		mem := fineLaw(rng, 64)
		res, stats, err := AlgorithmCRefined(sc.cat, sc.blk, Options{}, mem, 2, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Converged {
			t.Fatal("stability threshold was unreachable")
		}
		full, err := AlgorithmC(sc.cat, sc.blk, Options{}, mem)
		if err != nil {
			t.Fatal(err)
		}
		if !relClose(res.EC, full.EC) {
			t.Fatalf("trial %d: refined %v vs full %v", trial, res.EC, full.EC)
		}
		last := stats.BucketsPerRound[len(stats.BucketsPerRound)-1]
		if last != mem.Len() {
			t.Fatalf("should have reached full resolution, last b=%d", last)
		}
	}
}

// TestRefinedConvergesEarlyWithSmallRegret: with a modest stability
// requirement, refinement stops early on most scenarios and the chosen
// plan's exact EC stays close to the optimum.
func TestRefinedConvergesEarlyWithSmallRegret(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	early := 0
	for trial := 0; trial < 15; trial++ {
		sc := randScenario(rng, 2+rng.Intn(3))
		mem := fineLaw(rng, 128)
		res, stats, err := AlgorithmCRefined(sc.cat, sc.blk, Options{}, mem, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		full, err := AlgorithmC(sc.cat, sc.blk, Options{}, mem)
		if err != nil {
			t.Fatal(err)
		}
		regret := res.EC/full.EC - 1
		if regret < -1e-9 {
			t.Fatalf("trial %d: refined beat the optimum?! %v", trial, regret)
		}
		if regret > 0.10 {
			t.Fatalf("trial %d: regret too large: %v", trial, regret)
		}
		if stats.Converged {
			early++
			total := 0
			for _, b := range stats.BucketsPerRound {
				total += b
			}
			if total >= 128 {
				t.Fatalf("trial %d: convergence without savings (%v)", trial, stats.BucketsPerRound)
			}
		}
	}
	if early == 0 {
		t.Fatal("refinement never converged early across 15 scenarios")
	}
}

// TestRefinedStatsShape: bucket counts double per round from the start
// value and the reported EC matches an independent evaluation.
func TestRefinedStatsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	sc := randScenario(rng, 3)
	mem := fineLaw(rng, 32)
	res, stats, err := AlgorithmCRefined(sc.cat, sc.blk, Options{}, mem, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != len(stats.BucketsPerRound) || stats.Rounds < 1 {
		t.Fatalf("stats inconsistent: %+v", stats)
	}
	// First round uses startBuckets-1 cuts unless the scenario has fewer
	// in-range level-set cuts, in which case it jumps straight to the full
	// law (which is exact).
	if stats.BucketsPerRound[0] < 1 || stats.BucketsPerRound[0] > mem.Len() {
		t.Fatalf("first round buckets = %d, want 1..%d", stats.BucketsPerRound[0], mem.Len())
	}
	for i := 1; i < len(stats.BucketsPerRound); i++ {
		if stats.BucketsPerRound[i] < stats.BucketsPerRound[i-1] {
			t.Fatal("bucket counts must not shrink")
		}
	}
	ev, err := ExpectedCostModel(cost.ModelPaper, res.Plan, []dist.Dist{mem})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ev-res.EC) > 1e-9*math.Max(1, ev) {
		t.Fatalf("EC %v vs independent %v", res.EC, ev)
	}
}

// TestRefinedDegenerateInputs: clamping of startBuckets/stable, and point
// laws terminate immediately.
func TestRefinedDegenerateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	sc := randScenario(rng, 2)
	res, stats, err := AlgorithmCRefined(sc.cat, sc.blk, Options{}, dist.Point(500), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 1 || res.Plan == nil {
		t.Fatalf("point law should finish in one round: %+v", stats)
	}
	bad := &scenario{cat: sc.cat, blk: sc.blk.Clone()}
	bad.blk.Tables = []string{"zz"}
	if _, _, err := AlgorithmCRefined(bad.cat, bad.blk, Options{}, dist.Point(500), 1, 1); err == nil {
		t.Fatal("invalid block should fail")
	}
}

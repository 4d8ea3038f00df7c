package dist

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// rowStochastic checks every row of a chain sums to 1 with non-negative
// entries.
func rowStochastic(t *testing.T, c *Chain) {
	t.Helper()
	for i, row := range c.rows {
		sum := 0.0
		for _, p := range row {
			if p < 0 {
				t.Fatalf("row %d has negative entry: %v", i, row)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v: %v", i, sum, row)
		}
	}
}

func TestStickyTransitions(t *testing.T) {
	c, err := Sticky([]float64{10, 20, 30}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	rowStochastic(t, c)
	if c.Len() != 3 {
		t.Fatalf("Len %d", c.Len())
	}
	if got := c.States(); got[0] != 10 || got[2] != 30 {
		t.Fatalf("States %v", got)
	}
	// Boundary: all leave mass to the single neighbour.
	approx(t, c.rows[0][0], 0.8, 1e-12, "stay at bottom")
	approx(t, c.rows[0][1], 0.2, 1e-12, "bottom leaves up")
	// Interior: leave mass split evenly.
	approx(t, c.rows[1][0], 0.1, 1e-12, "interior down")
	approx(t, c.rows[1][2], 0.1, 1e-12, "interior up")
	// States returns a copy.
	c.States()[0] = -1
	if c.states[0] != 10 {
		t.Fatal("States leaked internal state")
	}
}

func TestStickySingleStateAndValidation(t *testing.T) {
	c, err := Sticky([]float64{100}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, c.rows[0][0], 1, 0, "one-state chain always stays")
	for _, bad := range []float64{-0.1, 1.5, math.NaN()} {
		if _, err := Sticky([]float64{1, 2}, bad); !errors.Is(err, errBadChain) {
			t.Fatalf("stay=%v should fail", bad)
		}
	}
	if _, err := Sticky(nil, 0.5); !errors.Is(err, errBadChain) {
		t.Fatal("no states should fail")
	}
	if _, err := Sticky([]float64{5, 5}, 0.5); !errors.Is(err, errBadChain) {
		t.Fatal("duplicate states should fail")
	}
}

func TestRandomWalkTransitions(t *testing.T) {
	c, err := RandomWalk([]float64{1, 2, 3}, 0.2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	rowStochastic(t, c)
	// Interior.
	approx(t, c.rows[1][2], 0.2, 1e-12, "up")
	approx(t, c.rows[1][0], 0.3, 1e-12, "down")
	approx(t, c.rows[1][1], 0.5, 1e-12, "stay")
	// Reflecting boundaries fold the blocked move into staying.
	approx(t, c.rows[0][0], 0.8, 1e-12, "bottom stay")
	approx(t, c.rows[2][2], 0.7, 1e-12, "top stay")
	for _, bad := range [][2]float64{{-0.1, 0.1}, {0.1, -0.1}, {0.7, 0.7}, {math.NaN(), 0}} {
		if _, err := RandomWalk([]float64{1, 2}, bad[0], bad[1]); !errors.Is(err, errBadChain) {
			t.Fatalf("RandomWalk(%v) should fail", bad)
		}
	}
}

func TestQuickChainsAreRowStochastic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		states := make([]float64, n)
		for i := range states {
			states[i] = float64(i*i + 1)
		}
		s, err := Sticky(states, rng.Float64())
		if err != nil {
			return false
		}
		pUp := rng.Float64() / 2
		pDown := rng.Float64() / 2
		w, err := RandomWalk(states, pUp, pDown)
		if err != nil {
			return false
		}
		for _, c := range []*Chain{s, w} {
			for _, row := range c.rows {
				sum := 0.0
				for _, p := range row {
					if p < 0 {
						return false
					}
					sum += p
				}
				if math.Abs(sum-1) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseLawsEvolution(t *testing.T) {
	c, err := Sticky([]float64{10, 20}, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	init := Point(10)
	laws, err := c.PhaseLaws(init, 3)
	if err != nil || len(laws) != 3 {
		t.Fatalf("laws %v err %v", laws, err)
	}
	if !laws[0].ApproxEqual(init, 0) {
		t.Fatal("phase 0 is the initial law, exactly")
	}
	approx(t, laws[1].PrAtMost(10), 0.75, 1e-12, "one step")
	approx(t, laws[2].PrAtMost(10), 0.75*0.75+0.25*0.25, 1e-12, "two steps")
	for _, l := range laws {
		approx(t, l.TotalMass(), 1, 1e-12, "phase laws stay normalized")
	}
	// n clamps to one phase.
	laws, err = c.PhaseLaws(init, 0)
	if err != nil || len(laws) != 1 {
		t.Fatal("clamp")
	}
	// Off-state mass is rejected.
	if _, err := c.PhaseLaws(Point(15), 2); !errors.Is(err, errBadChain) {
		t.Fatal("off-state init should fail")
	}
	if _, err := c.PhaseLaws(Dist{}, 2); !errors.Is(err, errBadChain) {
		t.Fatal("zero init should fail")
	}
}

// TestSymmetricWalkConvergesToUniform: a reflecting random walk with
// pUp = pDown satisfies detailed balance with the uniform distribution,
// so phase evolution from ANY initial law must converge to uniform.
func TestSymmetricWalkConvergesToUniform(t *testing.T) {
	states := []float64{8, 64, 512, 4096}
	c, err := RandomWalk(states, 0.3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	laws, err := c.PhaseLaws(Point(8), 400)
	if err != nil {
		t.Fatal(err)
	}
	last := laws[len(laws)-1]
	uniform, err := Uniform(states...)
	if err != nil {
		t.Fatal(err)
	}
	if tv := TotalVariation(last, uniform); tv > 1e-6 {
		t.Fatalf("symmetric walk should converge to uniform, TV = %v", tv)
	}
	// Convergence is monotone-ish: distance at the end is far below the
	// starting distance.
	if start := TotalVariation(laws[0], uniform); !(TotalVariation(last, uniform) < start/100) {
		t.Fatal("no contraction toward the stationary law")
	}
}

// TestStickyConvergesToStationary: the phase evolution of any ergodic
// sticky chain settles: successive phase laws stop changing, and the
// limit is invariant under one more step.
func TestStickyConvergesToStationary(t *testing.T) {
	levels := []float64{64, 256, 1024, 4096}
	c, err := Sticky(levels, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	init, err := Uniform(64, 4096)
	if err != nil {
		t.Fatal(err)
	}
	laws, err := c.PhaseLaws(init, 600)
	if err != nil {
		t.Fatal(err)
	}
	last, prev := laws[len(laws)-1], laws[len(laws)-2]
	if tv := TotalVariation(last, prev); tv > 1e-9 {
		t.Fatalf("chain has not settled: TV between consecutive phases %v", tv)
	}
	// Invariance: evolving the limit one more phase changes nothing.
	more, err := c.PhaseLaws(last, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tv := TotalVariation(more[1], last); tv > 1e-9 {
		t.Fatalf("limit law is not invariant: TV %v", tv)
	}
	// For this sticky chain, detailed balance gives interior states twice
	// a boundary state's mass: π ∝ (1, 2, 2, 1).
	approx(t, last.Prob(0), 1.0/6, 1e-6, "boundary stationary mass")
	approx(t, last.Prob(1), 2.0/6, 1e-6, "interior stationary mass")
}

func TestSampleSeqFollowsChain(t *testing.T) {
	c, err := Sticky([]float64{10, 20}, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	stays, steps := 0, 0
	for run := 0; run < 2000; run++ {
		seq, err := c.SampleSeq(rng, Point(10), 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) != 5 || seq[0] != 10 {
			t.Fatalf("seq %v", seq)
		}
		for i := 1; i < len(seq); i++ {
			if seq[i] != 10 && seq[i] != 20 {
				t.Fatalf("off-state value %v", seq[i])
			}
			steps++
			if seq[i] == seq[i-1] {
				stays++
			}
		}
	}
	approx(t, float64(stays)/float64(steps), 0.75, 0.02, "empirical stay rate")
	if _, err := c.SampleSeq(rng, Point(99), 3); !errors.Is(err, errBadChain) {
		t.Fatal("off-state init should fail")
	}
	// n clamps to 1.
	seq, err := c.SampleSeq(rng, Point(10), 0)
	if err != nil || len(seq) != 1 {
		t.Fatal("clamp")
	}
}

func TestAllSeqsEnumeratesExactly(t *testing.T) {
	c, err := Sticky([]float64{10, 20}, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	init := MustNew([]float64{10, 20}, []float64{0.5, 0.5})
	seqs, probs, err := c.AllSeqs(init, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 8 || len(probs) != 8 {
		t.Fatalf("2 states × 3 phases → 8 sequences, got %d", len(seqs))
	}
	total := 0.0
	for i, s := range seqs {
		if len(s) != 3 {
			t.Fatalf("sequence length %d", len(s))
		}
		total += probs[i]
	}
	approx(t, total, 1, 1e-12, "sequence probabilities sum to 1")

	// The marginal of phase i over all sequences equals PhaseLaws[i].
	laws, err := c.PhaseLaws(init, 3)
	if err != nil {
		t.Fatal(err)
	}
	for phase := 0; phase < 3; phase++ {
		pLow := 0.0
		for i, s := range seqs {
			if s[phase] == 10 {
				pLow += probs[i]
			}
		}
		approx(t, pLow, laws[phase].PrAtMost(10), 1e-12, "sequence marginal matches phase law")
	}

	if _, _, err := c.AllSeqs(Point(42), 2); !errors.Is(err, errBadChain) {
		t.Fatal("off-state init should fail")
	}
}

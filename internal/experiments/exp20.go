package experiments

import (
	"fmt"
	"math/rand"

	"lecopt/internal/dist"
	"lecopt/internal/optimizer"
	"lecopt/internal/workload"
)

// e20Refinement exercises §3.7's coarse-then-refine strategy: start from a
// handful of level-set cuts (nested-loop cliffs first), double the cut
// budget until the chosen plan and its EC estimate stabilize, fall back to
// the full law otherwise. Claims: the refined plan's exact EC never beats
// and rarely trails full Algorithm C (≤ 5% regret on every trial here),
// while the total buckets optimized over stay well below always-full.
func e20Refinement() (Table, error) {
	t := Table{
		ID:      "E20",
		Title:   "§3.7 coarse-then-refine: regret and work vs always-full optimization",
		Headers: []string{"law b", "trials", "avg regret", "worst regret", "avg buckets used", "full buckets used", "early stops"},
	}
	rng := rand.New(rand.NewSource(20))
	pass := true
	for _, lawB := range []int{32, 128, 512} {
		const trials = 12
		sumRegret, worst := 0.0, 0.0
		bucketsUsed, fullBuckets := 0, 0
		early := 0
		for i := 0; i < trials; i++ {
			sc, err := workload.Generate(workload.DefaultSpec(2+i%3, workload.Shape(i%4)), rng)
			if err != nil {
				return Table{}, err
			}
			vals := make([]float64, lawB)
			probs := make([]float64, lawB)
			for k := range vals {
				vals[k] = 3 + rng.Float64()*5000
				probs[k] = rng.Float64() + 0.01
			}
			mem := dist.MustNew(vals, probs)
			refined, stats, err := optimizer.AlgorithmCRefined(sc.Cat, sc.Block, optimizer.Options{}, mem, 2, 2)
			if err != nil {
				return Table{}, err
			}
			full, err := optimizer.AlgorithmC(sc.Cat, sc.Block, optimizer.Options{}, mem)
			if err != nil {
				return Table{}, err
			}
			regret := refined.EC/full.EC - 1
			if regret < -1e-9 || regret > 0.05 {
				pass = false
			}
			sumRegret += regret
			if regret > worst {
				worst = regret
			}
			for _, b := range stats.BucketsPerRound {
				bucketsUsed += b
			}
			fullBuckets += mem.Len()
			if stats.Converged {
				early++
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", lawB), fmt.Sprintf("%d", trials),
			fmt.Sprintf("%.4f", sumRegret/trials), fmt.Sprintf("%.4f", worst),
			fmtRatio(float64(bucketsUsed) / trials), fmt.Sprintf("%d", fullBuckets/trials),
			fmt.Sprintf("%d/%d", early, trials),
		})
		// Work saved must grow with the law's resolution.
		if lawB >= 128 && float64(bucketsUsed)/trials > 0.75*float64(fullBuckets)/trials {
			pass = false
		}
	}
	t.Pass = pass
	t.Notes = append(t.Notes,
		"regret = EC(refined plan)/EC(full Algorithm C plan) - 1, both exact under the full law",
		"buckets used sums the coarse-law sizes over all refinement rounds (optimization cost ∝ buckets, Thm 3.2)",
		"cuts are level-set aligned, nested-loop cliffs first — quantile-only refinement can converge on cliff-blind plans")
	return t, nil
}

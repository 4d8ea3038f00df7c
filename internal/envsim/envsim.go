// Package envsim simulates query execution environments: it samples
// run-time memory conditions (static draws or per-phase Markov
// trajectories, Section 3.5) and measures the realized cost of executing a
// plan under them. This is the substitute for the paper's "observations of
// the realistic deployment environments": the LEC-vs-LSC comparison only
// depends on the distribution of memory at each phase, which the simulator
// samples exactly.
package envsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"lecopt/internal/dist"
	"lecopt/internal/plan"
)

// Errors.
var (
	errNoEnv   = errors.New("envsim: environment needs a memory law")
	errNoPlans = errors.New("envsim: nothing to simulate")
)

// Env describes an execution environment: the initial memory law and,
// optionally, a Markov chain that evolves memory between join phases. With
// a nil Chain memory is constant within one execution (the static model).
type Env struct {
	Mem   dist.Dist
	Chain *dist.Chain
}

// Validate checks the environment is usable.
func (e Env) Validate() error {
	if e.Mem.IsZero() {
		return errNoEnv
	}
	if e.Chain != nil {
		// Every support value must be a chain state. Both sequences are
		// ascending, so a single merge pass checks containment without
		// building a set — Validate runs per request on the serving hot
		// path and must not allocate.
		j, n := 0, e.Chain.Len()
		for i := 0; i < e.Mem.Len(); i++ {
			v := e.Mem.Value(i)
			for j < n && e.Chain.State(j) < v {
				j++
			}
			if j == n || e.Chain.State(j) != v {
				return fmt.Errorf("envsim: initial law value %v is not a chain state", v)
			}
		}
	}
	return nil
}

// PhaseLaws returns the marginal memory law of each of n phases.
func (e Env) PhaseLaws(n int) ([]dist.Dist, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		n = 1
	}
	if e.Chain == nil {
		laws := make([]dist.Dist, n)
		for i := range laws {
			laws[i] = e.Mem
		}
		return laws, nil
	}
	return e.Chain.PhaseLaws(e.Mem, n)
}

// Sample draws one run-time memory sequence of length n.
func (e Env) Sample(rng *rand.Rand, n int) ([]float64, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		n = 1
	}
	if e.Chain == nil {
		m := e.Mem.Sample(rng)
		seq := make([]float64, n)
		for i := range seq {
			seq[i] = m
		}
		return seq, nil
	}
	return e.Chain.SampleSeq(rng, e.Mem, n)
}

// RunStats summarizes a Monte-Carlo simulation of one plan.
type RunStats struct {
	Runs   int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	P95    float64
	Total  float64
	Median float64
}

// Simulate executes a plan's cost model against `runs` sampled
// environments and aggregates realized costs. This is the empirical
// counterpart of EC(P): by the law of large numbers Simulate(...).Mean
// converges to the analytic expected cost.
//
// price is the plan evaluator (optimizer.ExpectedCostModel under a cost
// model) applied to each sampled trajectory's point laws. It is an argument
// because optimizer's tests reach envsim through package workload.
func Simulate(p *plan.Node, env Env, runs int, rng *rand.Rand, price func(*plan.Node, []dist.Dist) (float64, error)) (RunStats, error) {
	if p == nil || runs <= 0 {
		return RunStats{}, errNoPlans
	}
	phases := p.Phases()
	costs := make([]float64, 0, runs)
	total := 0.0
	for i := 0; i < runs; i++ {
		seq, err := env.Sample(rng, phases)
		if err != nil {
			return RunStats{}, err
		}
		c, err := price(p, dist.Points(seq))
		if err != nil {
			return RunStats{}, err
		}
		costs = append(costs, c)
		total += c
	}
	return summarize(costs, total), nil
}

func summarize(costs []float64, total float64) RunStats {
	n := len(costs)
	mean := total / float64(n)
	variance := 0.0
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, c := range costs {
		d := c - mean
		variance += d * d
		if c < mn {
			mn = c
		}
		if c > mx {
			mx = c
		}
	}
	variance /= float64(n)
	sorted := append([]float64(nil), costs...)
	insertionSort(sorted)
	return RunStats{
		Runs:   n,
		Mean:   mean,
		Std:    math.Sqrt(variance),
		Min:    mn,
		Max:    mx,
		P95:    quantile(sorted, 0.95),
		Median: quantile(sorted, 0.5),
		Total:  total,
	}
}

func insertionSort(a []float64) {
	// Avoid pulling sort just for this; n is test-scale.
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// Quantile returns the q-quantile of an ascending-sorted sample under the
// package's nearest-rank (floor) convention — exported so other layers
// (the serving runner's regret percentiles) share one definition instead
// of keeping copies in sync.
func Quantile(sorted []float64, q float64) float64 { return quantile(sorted, q) }

// Tournament compares named plans under a shared sampled environment
// stream (common random numbers: every plan sees the same memory
// sequences, which slashes comparison variance).
type Tournament struct {
	Names []string
	Plans []*plan.Node
}

// TournamentResult reports per-plan realized means and the win counts
// (how often each plan was the strict per-run winner).
type TournamentResult struct {
	Names []string
	Stats []RunStats
	Wins  []int
}

// Run executes the tournament for `runs` sampled environments, pricing
// each plan with price as Simulate does. Every plan sees the same
// trajectory, as long as the deepest plan's phase count.
func (t *Tournament) Run(env Env, runs int, rng *rand.Rand, price func(*plan.Node, []dist.Dist) (float64, error)) (TournamentResult, error) {
	if len(t.Plans) == 0 || len(t.Plans) != len(t.Names) {
		return TournamentResult{}, errNoPlans
	}
	maxPhases := 1
	for _, p := range t.Plans {
		if ph := p.Phases(); ph > maxPhases {
			maxPhases = ph
		}
	}
	costs := make([][]float64, len(t.Plans))
	totals := make([]float64, len(t.Plans))
	wins := make([]int, len(t.Plans))
	for i := range costs {
		costs[i] = make([]float64, 0, runs)
	}
	for r := 0; r < runs; r++ {
		seq, err := env.Sample(rng, maxPhases)
		if err != nil {
			return TournamentResult{}, err
		}
		laws := dist.Points(seq)
		bestIdx, bestCost := -1, math.Inf(1)
		strict := true
		for i, p := range t.Plans {
			c, err := price(p, laws)
			if err != nil {
				return TournamentResult{}, err
			}
			costs[i] = append(costs[i], c)
			totals[i] += c
			switch {
			case c < bestCost:
				bestIdx, bestCost, strict = i, c, true
			case c == bestCost:
				strict = false
			}
		}
		if bestIdx >= 0 && strict {
			wins[bestIdx]++
		}
	}
	res := TournamentResult{Names: append([]string(nil), t.Names...), Wins: wins}
	for i := range t.Plans {
		res.Stats = append(res.Stats, summarize(costs[i], totals[i]))
	}
	return res, nil
}

// Benchmarks: one per reproduced experiment (see DESIGN.md §4 and
// EXPERIMENTS.md). Each BenchmarkE* target regenerates the corresponding
// table/figure artifact of Chu, Halpern, Seshadri (PODS 1999); run
//
//	go test -bench=. -benchmem
//
// to reproduce the full evaluation. Two micro-benchmarks cover primitives
// the repo benchmark (go run ./bench) has no probe for: the naive §3.6.1
// evaluator and the Prop 3.1 frontier.
package lecopt

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/expcost"
	"lecopt/internal/experiments"
	"lecopt/internal/optimizer"
)

// benchExperiment runs one experiment table per iteration and fails the
// benchmark if the experiment's claim does not hold.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := exp.Run()
		if err != nil {
			b.Fatal(err)
		}
		if !tab.Pass {
			b.Fatalf("%s claim failed", id)
		}
	}
}

func BenchmarkE1MotivatingExample(b *testing.B) { benchExperiment(b, "E1") }
func BenchmarkE2VarianceSweep(b *testing.B)     { benchExperiment(b, "E2") }
func BenchmarkE3SystemRBaseline(b *testing.B)   { benchExperiment(b, "E3") }
func BenchmarkE4AlgorithmA(b *testing.B)        { benchExperiment(b, "E4") }
func BenchmarkE5TopCFrontier(b *testing.B)      { benchExperiment(b, "E5") }
func BenchmarkE6AlgorithmB(b *testing.B)        { benchExperiment(b, "E6") }
func BenchmarkE7AlgorithmC(b *testing.B)        { benchExperiment(b, "E7") }
func BenchmarkE8AlgCScaling(b *testing.B)       { benchExperiment(b, "E8") }
func BenchmarkE9DynamicMemory(b *testing.B)     { benchExperiment(b, "E9") }
func BenchmarkE10AlgorithmD(b *testing.B)       { benchExperiment(b, "E10") }
func BenchmarkE11SortMergeLinear(b *testing.B)  { benchExperiment(b, "E11") }
func BenchmarkE12NestedLoopLinear(b *testing.B) { benchExperiment(b, "E12") }
func BenchmarkE13Rebucketing(b *testing.B)      { benchExperiment(b, "E13") }
func BenchmarkE14Bucketing(b *testing.B)        { benchExperiment(b, "E14") }
func BenchmarkE15EngineValidation(b *testing.B) { benchExperiment(b, "E15") }
func BenchmarkE16Fleet(b *testing.B)            { benchExperiment(b, "E16") }
func BenchmarkE17EndToEnd(b *testing.B)         { benchExperiment(b, "E17") }
func BenchmarkE18Parametric(b *testing.B)       { benchExperiment(b, "E18") }
func BenchmarkE19LevelSetEC(b *testing.B)       { benchExperiment(b, "E19") }
func BenchmarkE20Refinement(b *testing.B)       { benchExperiment(b, "E20") }

// --- primitive micro-benchmarks -----------------------------------------

func randLaw(rng *rand.Rand, n int, lo, hi float64) dist.Dist {
	vals := make([]float64, n)
	probs := make([]float64, n)
	for i := range vals {
		vals[i] = lo + (hi-lo)*rng.Float64()
		probs[i] = rng.Float64() + 0.01
	}
	return dist.MustNew(vals, probs)
}

// BenchmarkJoinECNaive measures the cubic side of the §3.6.1 complexity
// claim; the linear evaluator is bench/'s expcost.join_ec_linear_ns probe.
func BenchmarkJoinECNaive(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("b=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a := randLaw(rng, n, 1, 1e6)
			bb := randLaw(rng, n, 1, 1e6)
			m := randLaw(rng, n, 2, 5000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				expcost.JoinECNaive(cost.SortMerge, a, bb, m)
			}
		})
	}
}

// BenchmarkTopCCombine measures the Proposition 3.1 frontier.
func BenchmarkTopCCombine(b *testing.B) {
	for _, c := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("c=%d", c), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			left := make([]float64, 2*c)
			right := make([]float64, 2*c)
			for i := range left {
				left[i] = rng.Float64()
				right[i] = rng.Float64()
			}
			sort.Float64s(left)
			sort.Float64s(right)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				optimizer.TopCCombine(left, right, c)
			}
		})
	}
}

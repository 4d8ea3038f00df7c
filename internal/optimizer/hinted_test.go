package optimizer

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/expcost"
	"lecopt/internal/plan"
	"lecopt/internal/workload"
)

// randomHints draws a size hint, log-uniform over 1–10⁵ pages, for each
// subset of tables with probability ½ — single tables included, so a leaf
// hint and the hints above it meet in one query.
func randomHints(rng *rand.Rand, tables []string) map[string]float64 {
	hints := map[string]float64{}
	for mask := 1; mask < 1<<len(tables); mask++ {
		if rng.Intn(2) == 0 {
			continue
		}
		var set []string
		for i, name := range tables {
			if mask&(1<<i) != 0 {
				set = append(set, name)
			}
		}
		hints[strings.Join(set, "+")] = math.Exp(rng.Float64() * math.Log(1e5))
	}
	return hints
}

// dScore prices a complete plan as Algorithm D does, from the per-mask size
// laws alone: each join in expectation over the laws of its two inputs'
// table sets and the memory law, the root sort over the law of the whole
// query, materialized access paths at their access cost. With one law per
// subset this is a pure function of the plan, so a brute-force minimum over
// every plan is D's oracle.
func dScore(c *ctx, laws []dist.Dist, mem dist.Dist, p *plan.Node) float64 {
	var rec func(n *plan.Node) (uint64, float64)
	rec = func(n *plan.Node) (uint64, float64) {
		switch n.Kind {
		case plan.KindScan:
			if n.Materialized() {
				return 1 << uint(c.blk.TableIndex(n.Table)), n.AccessIO()
			}
			return 1 << uint(c.blk.TableIndex(n.Table)), 0
		case plan.KindSort:
			m, s := rec(n.Child)
			s += expcost.SortEC(laws[m], mem)
			if n.Child.Kind == plan.KindScan && !n.Child.Materialized() {
				s += n.Child.AccessIO()
			}
			return m, s
		}
		lm, ls := rec(n.Left)
		rm, rs := rec(n.Right)
		return lm | rm, ls + rs + expcost.JoinECModel(c.opts.CostModel, n.Method, laws[lm], laws[rm], mem)
	}
	_, s := rec(p)
	return s
}

// TestAlgorithmDMatchesExhaustive holds Algorithm D to its oracle on the
// pinned corpus (2–4 tables) under both cost models, with the pin's
// selectivity and size laws, and with no hints, the pin's two-table hint
// and random hinted subsets: the least dScore over every left-deep plan,
// its laws built on the heap by the size rule (refSizeLaws).
func TestAlgorithmDMatchesExhaustive(t *testing.T) {
	envs, _ := pinSticky(t)
	for i, sc := range pinScenarios(t)[:200] {
		mem, selLaws, sizeLaws, hint := pinInputs(t, i, sc, envs)
		rng := rand.New(rand.NewSource(int64(9300 + i)))
		for _, model := range []cost.Model{cost.ModelPaper, cost.ModelEngine} {
			for hi, hints := range []map[string]float64{nil, hint, randomHints(rng, sc.Block.Tables)} {
				opts := Options{CostModel: model, SizeHints: hints}
				got, err := AlgorithmD(sc.Cat, sc.Block, opts, mem, selLaws, sizeLaws)
				if err != nil {
					t.Fatalf("scenario %d: %v", i, err)
				}
				c, err := prepare(sc.Cat, sc.Block, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.setSelLaws(selLaws); err != nil {
					t.Fatal(err)
				}
				if err := c.setSizeLaws(sizeLaws); err != nil {
					t.Fatal(err)
				}
				laws := refSizeLaws(t, c)
				want, err := c.exhaustive(func(p *plan.Node) (float64, error) { return dScore(c, laws, mem, p), nil })
				if err != nil {
					t.Fatal(err)
				}
				if !relClose(got.EC, want.EC) {
					t.Errorf("scenario %d %v hints %d: D EC %v, oracle %v\nD:      %s\noracle: %s",
						i, model, hi, got.EC, want.EC, got.Plan.Signature(), want.Plan.Signature())
				}
			}
		}
	}
}

// FuzzHintedOptimality holds the dynamic programs to their oracles under
// arbitrary feedback: a corpus scenario, a random hint set over its tables
// (single tables included) and one of the standard memory laws, under
// either cost model. Algorithm C (C-dynamic under a chain) must equal
// ExhaustiveLEC and LSC at the law's mean ExhaustiveLSC.
func FuzzHintedOptimality(f *testing.F) {
	for i := 0; i < 8; i++ {
		f.Add(uint8(i*29), int64(i), uint8(i), i%2 == 1)
	}
	envs, err := workload.StandardEnvs()
	if err != nil {
		f.Fatal(err)
	}
	shapes := []workload.Shape{workload.Chain, workload.Star, workload.Clique, workload.Random}
	f.Fuzz(func(t *testing.T, scenario uint8, hintSeed int64, law uint8, engine bool) {
		i := int(scenario) % 200
		sc := wideScenario(t, 2+i%3, shapes[i%len(shapes)], int64(7000+i))
		env := envs[int(law)%len(envs)].Env
		opts := Options{SizeHints: randomHints(rand.New(rand.NewSource(hintSeed)), sc.Block.Tables)}
		if engine {
			opts.CostModel = cost.ModelEngine
		}
		laws, err := env.PhaseLaws(len(sc.Block.Tables) - 1)
		if err != nil {
			t.Fatal(err)
		}
		var lec Result
		if env.Chain != nil {
			lec, err = AlgorithmCDynamic(sc.Cat, sc.Block, opts, env.Mem, env.Chain)
		} else {
			lec, err = AlgorithmC(sc.Cat, sc.Block, opts, env.Mem)
		}
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := ExhaustiveLEC(sc.Cat, sc.Block, opts, laws)
		if err != nil {
			t.Fatal(err)
		}
		if !relClose(lec.EC, oracle.EC) {
			t.Errorf("C EC %v, ExhaustiveLEC %v\nC:      %s\noracle: %s (hints %v)",
				lec.EC, oracle.EC, lec.Plan.Signature(), oracle.Plan.Signature(), opts.SizeHints)
		}
		mean := env.Mem.Mean()
		lsc, err := LSC(sc.Cat, sc.Block, opts, mean)
		if err != nil {
			t.Fatal(err)
		}
		point, err := ExhaustiveLSC(sc.Cat, sc.Block, opts, mean)
		if err != nil {
			t.Fatal(err)
		}
		if !relClose(lsc.EC, point.EC) {
			t.Errorf("LSC cost %v, ExhaustiveLSC %v\nLSC:    %s\noracle: %s (hints %v)",
				lsc.EC, point.EC, lsc.Plan.Signature(), point.Plan.Signature(), opts.SizeHints)
		}
	})
}

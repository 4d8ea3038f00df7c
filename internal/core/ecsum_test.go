package core

import (
	"math"
	"math/rand"
	"testing"

	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/envsim"
	"lecopt/internal/optimizer"
	"lecopt/internal/workload"
)

// TestECIsSumOfPhaseEC pins the precondition under which Scenario.Optimize
// takes a report's EC from the algorithm's own PhaseEC instead of pricing
// the plan a second time: the algorithm priced it under the environment's
// phase laws, so Σ PhaseEC in phase order is that second walk, bit for bit.
// That holds for C under every environment, and for A and B while memory
// is static. Under a chain A and B price with the static Env.Mem, so their
// PhaseEC is not the walk; whatever the path, EC must be the walk. It runs the
// differential corpus (seeds 7000+i, 2–4 tables) under every standard
// environment and a 27-bucket law, under both cost models.
func TestECIsSumOfPhaseEC(t *testing.T) {
	envs, err := workload.StandardEnvs()
	if err != nil {
		t.Fatal(err)
	}
	wide, err := dist.EquiWidth(64, 32768, 27, func(float64) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	envs = append(envs, workload.NamedEnv{Name: "equiwidth-27", Env: envsim.Env{Mem: wide}})
	shapes := []workload.Shape{workload.Chain, workload.Star, workload.Clique, workload.Random}
	scenarios := 200
	if testing.Short() {
		scenarios = 40
	}
	for i := range scenarios {
		gen, err := workload.Generate(workload.DefaultSpec(2+i%3, shapes[i%len(shapes)]), rand.New(rand.NewSource(int64(7000+i))))
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		for _, env := range envs {
			for _, model := range []cost.Model{cost.ModelPaper, cost.ModelEngine} {
				sc := &Scenario{Cat: gen.Cat, Query: gen.Block, Env: env.Env, Opts: optimizer.Options{CostModel: model}}
				laws, err := sc.phaseLaws()
				if err != nil {
					t.Fatal(err)
				}
				for _, alg := range []Algorithm{AlgA, AlgB, AlgC} {
					rep, err := sc.Optimize(alg)
					if err != nil {
						t.Fatalf("scenario %d %s %s: %v", i, env.Name, alg, err)
					}
					// The walk EC was defined by before the shortcut: the
					// plan priced under the environment's phase laws.
					walk, err := optimizer.ExpectedCostModel(model, rep.Plan, laws)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(rep.EC) != math.Float64bits(walk) {
						t.Fatalf("scenario %d %s %s model %d: EC %v, priced under the phase laws %v", i, env.Name, alg, model, rep.EC, walk)
					}
					sum := 0.0
					for _, p := range rep.PhaseEC {
						sum += p
					}
					if (env.Env.Chain == nil || alg == AlgC) && math.Float64bits(sum) != math.Float64bits(walk) {
						t.Fatalf("scenario %d %s %s model %d: Σ PhaseEC %v, priced under the phase laws %v", i, env.Name, alg, model, sum, walk)
					}
				}
			}
		}
	}
}

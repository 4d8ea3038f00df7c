package optimizer

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/plan"
	"lecopt/internal/workload"
)

// The point-pricing pin. C(P, v) at a fixed memory trajectory is EC(P)
// under point laws: this file digests every bit of the total and of each
// phase charge for the plans LSC, C and ExhaustiveLSC (on queries of up
// to six tables) return on the pin corpus, priced under both cost models at eight seeded trajectories per
// plan — one single-value (static) trajectory, and the rest of exactly
// Phases() length or longer, as a tournament over plans of different
// depths passes them. testdata/point_price.golden was recorded with the
// plan package's own fixed-memory cost walk, before that walk was removed,
// so it says the evaluator prices a realized trajectory bit for bit as that
// walk did. `-update-pin` re-records it.

const pointPriceGolden = "point_price.golden"

var pointPriceAlgs = []string{"LSC", "C", "ExhaustiveLSC"}

// pointPrice prices p at a concrete per-phase memory trajectory: the
// evaluator over the trajectory's point laws. A one-element trajectory is
// a constant memory value.
func pointPrice(model cost.Model, p *plan.Node, seq []float64) (float64, []float64, error) {
	laws := dist.Points(seq)
	phases, err := ExpectedCostPhasesModel(model, p, laws)
	if err != nil {
		return 0, nil, err
	}
	total, err := ExpectedCostModel(model, p, laws)
	return total, phases, err
}

// pointTrajectories draws the eight trajectories one plan is priced at:
// memory values alternate between the scenario's memory law and a
// log-uniform draw over 2–50 000 pages, so every regime of every formula
// is reached.
func pointTrajectories(rng *rand.Rand, phases int, law func() float64) [][]float64 {
	out := make([][]float64, 8)
	for k := range out {
		n := phases
		switch {
		case k == 0:
			n = 1
		case k%2 == 0:
			n = phases + k/2
		}
		seq := make([]float64, n)
		for i := range seq {
			if (k+i)%2 == 0 {
				seq[i] = law()
			} else {
				seq[i] = math.Exp(math.Log(2) + rng.Float64()*math.Log(25_000))
			}
		}
		out[k] = seq
	}
	return out
}

// pointPriceLine is scenario i's golden line: per algorithm, a digest of the
// plans it returns optimizing under each of models and of their prices at
// the trajectories under each of models ("-" where ExhaustiveLSC is not
// run).
func pointPriceLine(t *testing.T, i int, sc workload.Scenario, envs []workload.NamedEnv, models []cost.Model) string {
	t.Helper()
	mem := envs[i%len(envs)].Env.Mem
	rng := rand.New(rand.NewSource(int64(9000 + i)))
	law := func() float64 { return mem.Sample(rng) }
	sums := make([]string, len(pointPriceAlgs))
	for ai, alg := range pointPriceAlgs {
		if alg == "ExhaustiveLSC" && len(sc.Block.Tables) > 6 {
			sums[ai] = "-"
			continue
		}
		h := fnv.New64a()
		for _, optModel := range models {
			opts := Options{CostModel: optModel}
			var r Result
			var err error
			switch alg {
			case "LSC":
				r, err = LSC(sc.Cat, sc.Block, opts, mem.Mean())
			case "C":
				r, err = AlgorithmC(sc.Cat, sc.Block, opts, mem)
			case "ExhaustiveLSC":
				r, err = ExhaustiveLSC(sc.Cat, sc.Block, opts, mem.Mean())
			}
			if err != nil {
				t.Fatalf("scenario %d %s %v: %v", i, alg, optModel, err)
			}
			fmt.Fprintf(h, "%s\n", r.Plan.Signature())
			for _, seq := range pointTrajectories(rng, r.Plan.Phases(), law) {
				for _, model := range models {
					total, phases, err := pointPrice(model, r.Plan, seq)
					if err != nil {
						t.Fatalf("scenario %d %s: %v", i, alg, err)
					}
					fmt.Fprintf(h, "%016x", math.Float64bits(total))
					for _, c := range phases {
						fmt.Fprintf(h, "|%016x", math.Float64bits(c))
					}
					fmt.Fprint(h, "\n")
				}
			}
		}
		sums[ai] = fmt.Sprintf("%016x", h.Sum64())
	}
	return fmt.Sprintf("%03d %s", i, strings.Join(sums, " "))
}

// TestPointPricePaperRowsPinned: the golden lines of scenarios 201, 203
// and 207 were re-recorded when ModelEngine's grace hash stopped wrapping
// past 2⁶³ pages. Those lines mix both models; here the same digests taken
// under ModelPaper alone — optimizing and pricing — are pinned, so a change
// to ModelEngine alone cannot move them. They were last re-recorded when
// every search began sizing a subset by one table (ctx.size): that moved
// the last bits of Algorithm C's annotated sizes here, not its plans.
func TestPointPricePaperRowsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pin records amd64 float bits")
	}
	envs, err := workload.StandardEnvs()
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{
		201: "201 543347ed76ea1734 0a8d2442c632ee5a -",
		203: "203 61f40b8550ff8025 fc1ae6da08a6c0e5 -",
		207: "207 4b34fc7909534d06 6a0485441b807b45 -",
	}
	scs := pinScenarios(t)
	for i, w := range want {
		if got := pointPriceLine(t, i, scs[i], envs, []cost.Model{cost.ModelPaper}); got != w {
			t.Errorf("ModelPaper-only line %q, recorded %q", got, w)
		}
	}
}

func TestPointPricePinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden records amd64 float bits")
	}
	envs, err := workload.StandardEnvs()
	if err != nil {
		t.Fatal(err)
	}
	models := []cost.Model{cost.ModelPaper, cost.ModelEngine}
	var lines []string
	for i, sc := range pinScenarios(t) {
		lines = append(lines, pointPriceLine(t, i, sc, envs, models))
	}

	path := filepath.Join("testdata", pointPriceGolden)
	if *updatePin {
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	defer f.Close()
	var want []string
	for s := bufio.NewScanner(f); s.Scan(); {
		want = append(want, s.Text())
	}
	if len(want) != len(lines) {
		t.Fatalf("golden has %d scenarios, run produced %d", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("scenario line %q, golden %q", lines[i], want[i])
		}
	}
}

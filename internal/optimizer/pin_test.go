package optimizer

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/workload"
)

// The bit pin. Every algorithm's answer — plan, every bit of EC and of each
// PhaseEC element, Candidates, Probes — is digested over the differential
// corpus's 200 generation specs plus eight wide queries, under both cost
// models, with and without a two-table size hint, and compared with
// testdata/algorithm_bits.golden. It was last re-recorded when every search
// began sizing a subset by one table (ctx.size), which moved the hinted
// plans and the last bits of some unhinted costs. The exhaustive oracles
// (TestDOracle for Algorithm D) say a plan is optimal; this file says it is
// the same plan, bit for bit. `-update-pin` re-records it and is only
// legitimate for a change that means to alter a plan or a cost.

var updatePin = flag.Bool("update-pin", false, "re-record testdata/algorithm_bits.golden")

const pinGolden = "algorithm_bits.golden"

var pinAlgs = []string{"LSC", "A", "B", "C", "C-dynamic", "D"}

// pinScenarios lists the pinned instances: the corpus (seeds 7000+i, 2-4
// tables, cycling shapes) and eight 6-9-table queries where the join graph
// is sparse enough for adjacency to matter.
func pinScenarios(t *testing.T) []workload.Scenario {
	t.Helper()
	shapes := []workload.Shape{workload.Chain, workload.Star, workload.Clique, workload.Random}
	var out []workload.Scenario
	for i := 0; i < 200; i++ {
		out = append(out, wideScenario(t, 2+i%3, shapes[i%len(shapes)], int64(7000+i)))
	}
	for i := 0; i < 8; i++ {
		out = append(out, wideScenario(t, 6+i%4, shapes[i%len(shapes)], int64(7200+i)))
	}
	return out
}

// pinDigest folds one Result into h.
func pinDigest(h io.Writer, r Result) {
	fmt.Fprintf(h, "%s|%016x|%d|%d", r.Plan.Signature(), math.Float64bits(r.EC), r.Candidates, r.Probes)
	for _, p := range r.PhaseEC {
		fmt.Fprintf(h, "|%016x", math.Float64bits(p))
	}
	fmt.Fprint(h, "\n")
}

// pinInputs returns scenario i's memory law and Algorithm D's extra laws:
// a three-point law around the catalog's point selectivity on the first two
// edges, and on odd scenarios a size law on the first table. Weights 1:4:1
// normalise to probabilities that sum to 1 − 1 ulp, so every
// renormalisation on the way to a result-size law leaves a mark. hint is a
// size hint on the first join.
func pinInputs(t *testing.T, i int, sc workload.Scenario, envs []workload.NamedEnv) (mem dist.Dist, selLaws, sizeLaws map[string]dist.Dist, hint map[string]float64) {
	t.Helper()
	mem = envs[i%len(envs)].Env.Mem
	selLaws = map[string]dist.Dist{}
	for k, j := range sc.Block.Joins {
		if k == 2 {
			break
		}
		s, err := sc.Cat.JoinPageSelectivity(j.Left.Table, j.Left.Column, j.Right.Table, j.Right.Column)
		if err != nil {
			t.Fatal(err)
		}
		selLaws[EdgeKey(j)] = dist.MustNew([]float64{s / 3, s, 3 * s}, []float64{1, 4, 1})
	}
	if i%2 == 1 {
		tab, err := sc.Cat.Table(sc.Block.Tables[0])
		if err != nil {
			t.Fatal(err)
		}
		sizeLaws = map[string]dist.Dist{tab.Name: dist.MustNew([]float64{tab.Pages / 2, tab.Pages, 2 * tab.Pages}, []float64{1, 4, 1})}
	}
	j0 := sc.Block.Joins[0]
	hint = map[string]float64{j0.Left.Table + "+" + j0.Right.Table: float64(1 + (i*37)%2000)}
	return mem, selLaws, sizeLaws, hint
}

// pinSticky returns the standard environments and the markov-sticky one
// that C-dynamic is pinned under.
func pinSticky(t testing.TB) ([]workload.NamedEnv, workload.NamedEnv) {
	t.Helper()
	envs, err := workload.StandardEnvs()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range envs {
		if e.Name == "markov-sticky" {
			return envs, e
		}
	}
	t.Fatal("markov-sticky environment missing")
	return nil, workload.NamedEnv{}
}

func TestAlgorithmBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Ports with fused multiply-add (arm64, ppc64, s390x, riscv64) round
		// x*y+z once, not twice: same plans, other last bits.
		t.Skip("the golden records amd64 float bits")
	}
	envs, sticky := pinSticky(t)

	var lines []string
	for i, sc := range pinScenarios(t) {
		mem, selLaws, sizeLaws, hint := pinInputs(t, i, sc, envs)

		sums := make([]string, len(pinAlgs))
		for ai, alg := range pinAlgs {
			h := fnv.New64a()
			for _, model := range []cost.Model{cost.ModelPaper, cost.ModelEngine} {
				for _, hints := range []map[string]float64{nil, hint} {
					opts := Options{CostModel: model, SizeHints: hints}
					var r Result
					var err error
					switch alg {
					case "LSC":
						r, err = LSC(sc.Cat, sc.Block, opts, mem.Mean())
					case "A":
						r, err = AlgorithmA(sc.Cat, sc.Block, opts, mem)
					case "B":
						r, err = AlgorithmB(sc.Cat, sc.Block, opts, mem, 3)
					case "C":
						r, err = AlgorithmC(sc.Cat, sc.Block, opts, mem)
					case "C-dynamic":
						r, err = AlgorithmCDynamic(sc.Cat, sc.Block, opts, sticky.Env.Mem, sticky.Env.Chain)
					case "D":
						r, err = AlgorithmD(sc.Cat, sc.Block, opts, mem, selLaws, sizeLaws)
					}
					if err != nil {
						t.Fatalf("scenario %d %s %v hints=%v: %v", i, alg, model, hints != nil, err)
					}
					pinDigest(h, r)
				}
			}
			sums[ai] = fmt.Sprintf("%016x", h.Sum64())
		}
		lines = append(lines, fmt.Sprintf("%03d %s", i, strings.Join(sums, " ")))
	}

	path := filepath.Join("testdata", pinGolden)
	if *updatePin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		if lines[i] == want[i] {
			continue
		}
		got, exp := strings.Fields(lines[i]), strings.Fields(want[i])
		for k := 1; k < len(got) && k < len(exp); k++ {
			if got[k] != exp[k] {
				t.Errorf("scenario %s: %s digest %s, golden %s", got[0], pinAlgs[k-1], got[k], exp[k])
			}
		}
	}
}

// Differential test harness: ~200 seeded random small scenarios checked
// against ground truth from three independent angles —
//
//  1. Algorithm C's plan expected cost equals the exhaustive left-deep
//     enumerator's (Theorems 3.3/3.4 hold on every random instance, not
//     just the hand-picked paper examples);
//  2. the LEC plan is never worse in expectation than either classical
//     LSC baseline (the paper's core utility claim);
//  3. OptimizeBatch returns byte-identical PlanReports to the sequential
//     path, with and without the plan cache;
//  4. a request that arrives as SQL text — resolved through the handle's
//     statement memo — answers byte-identically to the same request
//     carrying the pre-built block.
package lecopt

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"lecopt/internal/cost"
	"lecopt/internal/optimizer"
	"lecopt/internal/workload"
)

const diffScenarios = 200

// diffScenario builds the i-th corpus scenario: 2-4 tables (small enough
// for the exhaustive oracle), mixed shapes, cycling the standard
// environment suite. Same i ⇒ same scenario, run after run.
func diffScenario(t testing.TB, i int, envs []workload.NamedEnv) *Scenario {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(7000 + i)))
	shapes := []workload.Shape{workload.Chain, workload.Star, workload.Clique, workload.Random}
	spec := workload.DefaultSpec(2+i%3, shapes[i%len(shapes)])
	sc, err := workload.Generate(spec, rng)
	if err != nil {
		t.Fatalf("scenario %d: %v", i, err)
	}
	return &Scenario{Cat: sc.Cat, Query: sc.Block, Env: envs[i%len(envs)].Env}
}

func diffCorpus(t testing.TB) []*Scenario {
	t.Helper()
	envs, err := workload.StandardEnvs()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*Scenario, diffScenarios)
	for i := range out {
		out[i] = diffScenario(t, i, envs)
	}
	return out
}

// relClose reports a ≈ b within relative tolerance (absolute near zero).
func relClose(a, b, tol float64) bool {
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		return d <= tol
	}
	return d/scale <= tol
}

// hintPatterns are the size-hint inputs every oracle check runs under: none;
// one two-table hint on a random join edge; the executed-prefix chain of the
// LSC plan, which is what feedback records after serving it; and random
// table subsets. Serving always carries hints, and a hint covers a subset
// that many plans share, so the dynamic programs are exact only if every
// search sizes a subset the same way whatever order reached it.
var hintPatterns = []string{"none", "edge", "prefix", "random"}

// hintedRun is one corpus scenario under one cost model and hint pattern.
type hintedRun struct {
	name string
	sc   *Scenario
}

// hintedCorpus crosses the corpus with both cost models and every hint
// pattern. Hinted sizes are log-uniform over 1–5 000 pages, drawn from a
// generator seeded by the scenario, so every run is reproducible.
func hintedCorpus(t testing.TB) []hintedRun {
	t.Helper()
	var out []hintedRun
	for i, base := range diffCorpus(t) {
		for _, model := range []cost.Model{cost.ModelPaper, cost.ModelEngine} {
			rng := rand.New(rand.NewSource(int64(9100 + i)))
			for _, pat := range hintPatterns {
				sc := *base
				sc.Opts.CostModel = model
				sc.Opts.SizeHints = patternHints(t, pat, &sc, rng)
				out = append(out, hintedRun{fmt.Sprintf("scenario %d %v hints=%s", i, model, pat), &sc})
			}
		}
	}
	return out
}

// patternHints draws one hint pattern's size hints for sc.
func patternHints(t testing.TB, pattern string, sc *Scenario, rng *rand.Rand) map[string]float64 {
	t.Helper()
	pages := func() float64 { return math.Exp(rng.Float64() * math.Log(5000)) }
	tables := sc.Query.Tables
	hints := map[string]float64{}
	switch pattern {
	case "none":
		return nil
	case "edge":
		j := sc.Query.Joins[rng.Intn(len(sc.Query.Joins))]
		hints[SizeKey(j.Left.Table, j.Right.Table)] = pages()
	case "prefix":
		lsc, err := sc.Optimize(AlgLSCMean)
		if err != nil {
			t.Fatal(err)
		}
		rels := lsc.Plan.Relations()
		for k := 2; k <= len(rels); k++ {
			hints[SizeKey(rels[:k]...)] = pages()
		}
	case "random":
		for mask := 1; mask < 1<<len(tables); mask++ {
			if bits.OnesCount(uint(mask)) < 2 || rng.Intn(2) == 0 {
				continue
			}
			var set []string
			for i, name := range tables {
				if mask&(1<<i) != 0 {
					set = append(set, name)
				}
			}
			hints[SizeKey(set...)] = pages()
		}
	}
	return hints
}

// phaseLaws returns the per-phase memory laws of sc's environment, one per
// join phase of its query.
func phaseLaws(t testing.TB, sc *Scenario) []Dist {
	t.Helper()
	laws, err := sc.Env.PhaseLaws(len(sc.Query.Tables) - 1)
	if err != nil {
		t.Fatal(err)
	}
	return laws
}

// checkAlgCExhaustive checks Algorithm C (C-dynamic under a chain) against
// the brute-force oracle on one run.
func checkAlgCExhaustive(t *testing.T, name string, sc *Scenario) {
	t.Helper()
	lec, err := sc.Optimize(AlgC)
	if err != nil {
		t.Fatalf("%s: AlgC: %v", name, err)
	}
	oracle, err := optimizer.ExhaustiveLEC(sc.Cat, sc.Query, sc.Opts, phaseLaws(t, sc))
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	if !relClose(lec.EC, oracle.EC, 1e-9) {
		t.Errorf("%s: AlgC EC %v != exhaustive EC %v\nAlgC plan: %s\noracle:    %s",
			name, lec.EC, oracle.EC, lec.Plan.Signature(), oracle.Plan.Signature())
	}
}

// TestDifferentialAlgCMatchesExhaustive checks Algorithm C against the
// brute-force oracle on every corpus scenario, under both cost models and
// every hint pattern (Theorems 3.3 and 3.4).
func TestDifferentialAlgCMatchesExhaustive(t *testing.T) {
	for _, r := range hintedCorpus(t) {
		checkAlgCExhaustive(t, r.name, r.sc)
	}
}

// TestDifferentialHintOnUnjoinedPair is the smallest hinted failure of the
// order-sized kernel: a three-table chain t0–t1–t2 with one hint on the pair
// the chain does not join. The kernel sized {t0,t1,t2} by whichever prefix
// reached it — the hinted cross product or the unhinted t1–t2 join — so it
// priced one subset at two sizes, and Algorithm C returned a plan 0.2 %
// above the exhaustive optimum and above the LSC plan's expected cost.
func TestDifferentialHintOnUnjoinedPair(t *testing.T) {
	sc := *diffCorpus(t)[100]
	sc.Opts.SizeHints = map[string]float64{SizeKey("t0", "t2"): 348}
	checkAlgCExhaustive(t, "t0+t2 hinted", &sc)
	lec, err := sc.Optimize(AlgC)
	if err != nil {
		t.Fatal(err)
	}
	lsc, err := sc.Optimize(AlgLSCMean)
	if err != nil {
		t.Fatal(err)
	}
	if lec.EC > lsc.EC {
		t.Errorf("LEC EC %v > LSC EC %v", lec.EC, lsc.EC)
	}
}

// TestDifferentialLSCMatchesExhaustive checks the System R pass at the mean
// memory against the brute-force point oracle on every run of the hinted
// corpus (Theorem 2.1).
func TestDifferentialLSCMatchesExhaustive(t *testing.T) {
	for _, r := range hintedCorpus(t) {
		mean := r.sc.Env.Mem.Mean()
		lsc, err := optimizer.LSC(r.sc.Cat, r.sc.Query, r.sc.Opts, mean)
		if err != nil {
			t.Fatalf("%s: LSC: %v", r.name, err)
		}
		oracle, err := optimizer.ExhaustiveLSC(r.sc.Cat, r.sc.Query, r.sc.Opts, mean)
		if err != nil {
			t.Fatalf("%s: oracle: %v", r.name, err)
		}
		if !relClose(lsc.EC, oracle.EC, 1e-9) {
			t.Errorf("%s: LSC cost %v != exhaustive cost %v\nLSC plan: %s\noracle:   %s",
				r.name, lsc.EC, oracle.EC, lsc.Plan.Signature(), oracle.Plan.Signature())
		}
	}
}

// TestDifferentialLECNeverWorseThanLSC checks the paper's utility claim on
// every run of the hinted corpus: under the common expected-cost yardstick
// the LEC plan beats or ties both classical baselines.
func TestDifferentialLECNeverWorseThanLSC(t *testing.T) {
	const slack = 1e-9 // float-summation noise only; LEC optimality is exact
	for _, r := range hintedCorpus(t) {
		lec, err := r.sc.Optimize(AlgC)
		if err != nil {
			t.Fatalf("%s: AlgC: %v", r.name, err)
		}
		for _, baseline := range []Algorithm{AlgLSCMean, AlgLSCMode} {
			lsc, err := r.sc.Optimize(baseline)
			if err != nil {
				t.Fatalf("%s: %s: %v", r.name, baseline, err)
			}
			if lec.EC > lsc.EC*(1+slack)+slack {
				t.Errorf("%s: LEC EC %v > %s EC %v", r.name, lec.EC, baseline, lsc.EC)
			}
		}
	}
}

// batchReportKey renders every PlanReport field, so equal keys mean a
// batch reproduced the sequential answer exactly.
func batchReportKey(r PlanReport) string {
	return fmt.Sprintf("%s|%s|%v|%v|%d|%d",
		r.Algorithm, r.Plan.Signature(), r.Score, r.EC, r.Candidates, r.Probes)
}

// TestDifferentialBatchMatchesSequential runs the whole corpus through
// OptimizeBatch on handles with exact keys and no feedback —
// without a plan cache, then cache-cold and cache-warm on one handle — and
// requires byte-identical reports to the sequential path each time.
func TestDifferentialBatchMatchesSequential(t *testing.T) {
	corpus := diffCorpus(t)
	reqs := make([]Request, len(corpus))
	want := make([]string, len(corpus))
	for i, sc := range corpus {
		reqs[i] = corpusRequest(sc, AlgC)
		rep, err := sc.Optimize(AlgC)
		if err != nil {
			t.Fatalf("scenario %d: sequential: %v", i, err)
		}
		want[i] = batchReportKey(rep)
	}
	check := func(label string, results []Response) {
		t.Helper()
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("%s: scenario %d: %v", label, i, r.Err)
			}
			if got := batchReportKey(r.PlanReport); got != want[i] {
				t.Errorf("%s: scenario %d:\n got %s\nwant %s", label, i, got, want[i])
			}
		}
	}
	exact := []Option{WithExactCacheKeys(), WithoutFeedback()}
	check("no-cache", New(nil, append(exact, WithoutPlanCache())...).OptimizeBatch(reqs))
	opt := New(nil, append(exact, WithPlanCache(1024))...)
	check("cache-cold", opt.OptimizeBatch(reqs))
	warm := opt.OptimizeBatch(reqs)
	check("cache-warm", warm)
	hits := 0
	for _, r := range warm {
		if r.CacheHit {
			hits++
		}
	}
	if hits != len(reqs) {
		t.Errorf("warm pass: %d/%d cache hits", hits, len(reqs))
	}
}

// TestDifferentialSQLMatchesQuery serves the corpus to two handles, one fed
// pre-built blocks and one fed their SQL text, cold then warm, under banded
// and exact cache keys: every response must agree on every report field,
// the per-phase charges and whether it was a cache hit. The statement memo
// may change what a SQL request costs, never what it answers.
func TestDifferentialSQLMatchesQuery(t *testing.T) {
	corpus := diffCorpus(t)
	render := func(r Response) string {
		return fmt.Sprintf("%s|%v|hit=%v", batchReportKey(r.PlanReport), r.PhaseEC, r.CacheHit)
	}
	for _, keys := range []struct {
		name string
		opts []Option
	}{{"banded", nil}, {"exact", []Option{WithExactCacheKeys()}}} {
		byQuery, bySQL := New(nil, keys.opts...), New(nil, keys.opts...)
		for _, pass := range []string{"cold", "warm"} {
			for i, sc := range corpus {
				want, err := byQuery.Optimize(Request{Cat: sc.Cat, Query: sc.Query, Env: sc.Env, Alg: AlgC})
				if err != nil {
					t.Fatalf("%s/%s scenario %d: query form: %v", keys.name, pass, i, err)
				}
				got, err := bySQL.Optimize(Request{Cat: sc.Cat, SQL: sc.Query.String(), Env: sc.Env, Alg: AlgC})
				if err != nil {
					t.Fatalf("%s/%s scenario %d: SQL form: %v", keys.name, pass, i, err)
				}
				if g, w := render(got), render(want); g != w {
					t.Errorf("%s/%s scenario %d:\n  sql %s\nquery %s", keys.name, pass, i, g, w)
				}
				if pass == "warm" && !got.CacheHit {
					t.Errorf("%s/warm scenario %d: SQL form missed the plan cache", keys.name, i)
				}
			}
		}
	}
}

// TestDifferentialPhaseECContract pins the phase-count contract across the
// whole corpus: every algorithm's report carries exactly one analytic
// charge per execution phase of its plan (the same count the engine uses
// for ExecResult.PhaseIO — both sides are defined by plan.Phases()), every
// entry is finite and non-negative, and for the memory-only algorithms the
// entries sum back to the minimized score. A drifting phase index — the
// bug class behind the dynamic-memory rank inversion — breaks one of
// these on some corpus shape.
func TestDifferentialPhaseECContract(t *testing.T) {
	algs := []Algorithm{AlgLSCMean, AlgLSCMode, AlgA, AlgB, AlgC}
	for i, sc := range diffCorpus(t) {
		for _, alg := range algs {
			rep, err := sc.Optimize(alg)
			if err != nil {
				t.Fatalf("scenario %d: %s: %v", i, alg, err)
			}
			phases := rep.Plan.Phases()
			if len(rep.PhaseEC) != phases {
				t.Fatalf("scenario %d: %s: %d phase charges for a %d-phase plan (%s)",
					i, alg, len(rep.PhaseEC), phases, rep.Plan.Signature())
			}
			var sum float64
			for pi, v := range rep.PhaseEC {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("scenario %d: %s: PhaseEC[%d]=%v", i, alg, pi, v)
				}
				sum += v
			}
			if !relClose(sum, rep.Score, 1e-9) {
				t.Errorf("scenario %d: %s: sum(PhaseEC)=%v != Score=%v (plan %s)",
					i, alg, sum, rep.Score, rep.Plan.Signature())
			}
		}
	}
}

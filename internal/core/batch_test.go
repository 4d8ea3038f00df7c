package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"lecopt/internal/dist"
	"lecopt/internal/plancache"
	"lecopt/internal/workload"
)

// batchScenarios builds a deterministic mixed workload: random scenarios
// across shapes and sizes, each paired with a standard environment.
func batchScenarios(t testing.TB, n int) []*Scenario {
	t.Helper()
	envs, err := workload.StandardEnvs()
	if err != nil {
		t.Fatal(err)
	}
	shapes := []workload.Shape{workload.Chain, workload.Star, workload.Clique, workload.Random}
	out := make([]*Scenario, n)
	for i := range out {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		sc, err := workload.Generate(workload.DefaultSpec(2+i%3, shapes[i%len(shapes)]), rng)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = &Scenario{Cat: sc.Cat, Query: sc.Block, Env: envs[i%len(envs)].Env}
	}
	return out
}

// reportKey renders every field of a PlanReport for byte-identity checks.
func reportKey(r PlanReport) string {
	return fmt.Sprintf("%s|%s|%v|%v|%d|%d",
		r.Algorithm, r.Plan.Signature(), r.Score, r.EC, r.Candidates, r.Probes)
}

func TestOptimizeBatchMatchesSequential(t *testing.T) {
	scs := batchScenarios(t, 24)
	algs := []Algorithm{AlgLSCMean, AlgLSCMode, AlgA, AlgB, AlgC}
	var jobs []BatchJob
	for _, sc := range scs {
		for _, alg := range algs {
			jobs = append(jobs, BatchJob{Scenario: sc, Alg: alg})
		}
	}
	want := make([]string, len(jobs))
	for i, j := range jobs {
		rep, err := j.Scenario.Optimize(j.Alg)
		if err != nil {
			t.Fatalf("sequential job %d: %v", i, err)
		}
		want[i] = reportKey(rep)
	}
	for _, workers := range []int{1, 8} {
		results := OptimizeBatch(jobs, BatchOptions{Workers: workers})
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d job %d: %v", workers, i, r.Err)
			}
			if got := reportKey(r.Report); got != want[i] {
				t.Fatalf("workers=%d job %d:\n got %s\nwant %s", workers, i, got, want[i])
			}
		}
	}
}

func TestOptimizeBatchCache(t *testing.T) {
	scs := batchScenarios(t, 8)
	var jobs []BatchJob
	for round := 0; round < 3; round++ {
		for _, sc := range scs {
			jobs = append(jobs, BatchJob{Scenario: sc, Alg: AlgC})
		}
	}
	cache := plancache.New[PlanReport](256)
	// Warm sequentially so hit accounting is deterministic, then re-run hot.
	cold := OptimizeBatch(jobs[:len(scs)], BatchOptions{Workers: 1, Cache: cache})
	for i, r := range cold {
		if r.Err != nil || r.CacheHit {
			t.Fatalf("cold job %d: err=%v hit=%v", i, r.Err, r.CacheHit)
		}
	}
	hot := OptimizeBatch(jobs, BatchOptions{Workers: 4, Cache: cache})
	for i, r := range hot {
		if r.Err != nil {
			t.Fatalf("hot job %d: %v", i, r.Err)
		}
		if !r.CacheHit {
			t.Fatalf("hot job %d missed a warmed cache", i)
		}
		if got, want := reportKey(r.Report), reportKey(cold[i%len(scs)].Report); got != want {
			t.Fatalf("hot job %d:\n got %s\nwant %s", i, got, want)
		}
	}
	st := cache.Stats()
	if st.Hits == 0 || st.HitRate() == 0 {
		t.Fatalf("cache never hit: %+v", st)
	}
	if st.Size != len(scs) {
		t.Fatalf("cache size = %d, want %d", st.Size, len(scs))
	}
}

func TestOptimizeBatchPerJobErrors(t *testing.T) {
	scs := batchScenarios(t, 2)
	jobs := []BatchJob{
		{Scenario: scs[0], Alg: AlgC},
		{Scenario: nil, Alg: AlgC},
		{Scenario: &Scenario{}, Alg: AlgC},
		{Scenario: scs[1], Alg: Algorithm(99)},
		{Scenario: scs[1], Alg: AlgC},
	}
	results := OptimizeBatch(jobs, BatchOptions{Workers: 3})
	if results[0].Err != nil || results[4].Err != nil {
		t.Fatalf("good jobs failed: %v, %v", results[0].Err, results[4].Err)
	}
	if !errors.Is(results[1].Err, ErrNilScenario) || !errors.Is(results[2].Err, ErrNilScenario) {
		t.Fatalf("nil/empty scenario errors: %v, %v", results[1].Err, results[2].Err)
	}
	if !errors.Is(results[3].Err, ErrUnknownAlg) {
		t.Fatalf("unknown alg error: %v", results[3].Err)
	}
}

func TestOptimizeBatchEmpty(t *testing.T) {
	if got := OptimizeBatch(nil, BatchOptions{}); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}

func TestCacheKeyErrors(t *testing.T) {
	sc := &Scenario{}
	if _, err := sc.AppendCacheKey(nil, AlgC, 0, 0); !errors.Is(err, ErrNilScenario) {
		t.Fatalf("AppendCacheKey on empty scenario: %v", err)
	}
}

// TestCacheKeyIgnoresUnreadInputs pins the key-sharing rule: inputs an
// algorithm never reads (TopC outside AlgB, the D-only laws outside AlgD)
// must not split its cache keys.
func TestCacheKeyIgnoresUnreadInputs(t *testing.T) {
	base := batchScenarios(t, 1)[0]
	key := func(mutate func(*Scenario), alg Algorithm) string {
		sc := *base
		mutate(&sc)
		k, err := sc.AppendCacheKey(nil, alg, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return string(k)
	}
	plain := key(func(*Scenario) {}, AlgC)
	if plain != key(func(sc *Scenario) { sc.TopC = 7 }, AlgC) {
		t.Fatal("TopC split AlgC cache keys")
	}
	if plain != key(func(sc *Scenario) {
		sc.SelLaws = map[string]dist.Dist{"t0.k=t1.k": dist.Point(0.5)}
	}, AlgC) {
		t.Fatal("SelLaws split AlgC cache keys")
	}
	if key(func(*Scenario) {}, AlgB) == key(func(sc *Scenario) { sc.TopC = 7 }, AlgB) {
		t.Fatal("TopC must differentiate AlgB cache keys")
	}
	if key(func(*Scenario) {}, AlgD) == key(func(sc *Scenario) {
		sc.SelLaws = map[string]dist.Dist{"t0.k=t1.k": dist.Point(0.5)}
	}, AlgD) {
		t.Fatal("SelLaws must differentiate AlgD cache keys")
	}
}

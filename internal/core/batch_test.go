package core

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"slices"
	"testing"

	"lecopt/internal/catalog"
	"lecopt/internal/dist"
	"lecopt/internal/envsim"
	"lecopt/internal/feedback"
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

// exactHandle is the batch tests' handle: exact cache keys and no feedback,
// so a batch is memoization only and must equal sequential optimization.
// cacheSize < 0 disables the plan cache.
func exactHandle(cacheSize int) *Optimizer {
	return NewOptimizer(nil, Config{CacheSize: cacheSize, DriftBand: -1, DisableFeedback: true})
}

func scenarioRequest(sc *Scenario, alg Algorithm) Request {
	return Request{Query: sc.Query, Cat: sc.Cat, Env: sc.Env, Alg: alg}
}

func TestOptimizeBatchMatchesSequential(t *testing.T) {
	scs := batchScenarios(t, 24)
	algs := []Algorithm{AlgLSCMean, AlgLSCMode, AlgA, AlgB, AlgC}
	var reqs []Request
	var want []string
	for _, sc := range scs {
		for _, alg := range algs {
			rep, err := sc.Optimize(alg)
			if err != nil {
				t.Fatalf("sequential request %d: %v", len(reqs), err)
			}
			reqs = append(reqs, scenarioRequest(sc, alg))
			want = append(want, reportKey(rep))
		}
	}
	for i, r := range exactHandle(-1).OptimizeBatch(reqs) {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if got := reportKey(r.PlanReport); got != want[i] {
			t.Fatalf("request %d:\n got %s\nwant %s", i, got, want[i])
		}
	}
}

// TestWarmBatchAllocs: a warm 64-request batch — 45 distinct requests and 19
// duplicates, on a handle that has observed a size for each — is answered
// on the caller's goroutine from pooled calls and a pooled batch scratch,
// so its one allocation is the []Response it returns.
func TestWarmBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	scs := batchScenarios(t, 45)
	o := NewOptimizer(nil, Config{})
	var reqs []Request
	for i, sc := range scs {
		reqs = append(reqs, scenarioRequest(sc, AlgC))
		if err := o.Observe(Feedback{Query: sc.Query, Cat: sc.Cat, Sizes: map[string]float64{
			feedback.SetKey(sc.Query.Tables[0], sc.Query.Tables[1]): float64(100 + 37*i),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; len(reqs) < 64; i += 2 {
		reqs = append(reqs, reqs[i])
	}
	for i, r := range o.OptimizeBatch(reqs) {
		if r.Err != nil {
			t.Fatalf("cold request %d: %v", i, r.Err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i, r := range o.OptimizeBatch(reqs) {
			if r.Err != nil || !r.CacheHit {
				t.Fatalf("warm request %d: hit=%v err=%v", i, r.CacheHit, r.Err)
			}
		}
	})
	if allocs != 1 {
		t.Fatalf("warm 64-request batch allocates %.2f times, want 1 (its []Response)", allocs)
	}
}

func TestOptimizeBatchCache(t *testing.T) {
	scs := batchScenarios(t, 8)
	var reqs []Request
	for round := 0; round < 3; round++ {
		for _, sc := range scs {
			reqs = append(reqs, scenarioRequest(sc, AlgC))
		}
	}
	o := exactHandle(256)
	cold := o.OptimizeBatch(reqs[:len(scs)])
	for i, r := range cold {
		if r.Err != nil || r.CacheHit {
			t.Fatalf("cold request %d: err=%v hit=%v", i, r.Err, r.CacheHit)
		}
	}
	hot := o.OptimizeBatch(reqs)
	for i, r := range hot {
		if r.Err != nil {
			t.Fatalf("hot request %d: %v", i, r.Err)
		}
		if !r.CacheHit {
			t.Fatalf("hot request %d missed a warmed cache", i)
		}
		if got, want := reportKey(r.PlanReport), reportKey(cold[i%len(scs)].PlanReport); got != want {
			t.Fatalf("hot request %d:\n got %s\nwant %s", i, got, want)
		}
	}
	st := o.CacheStats()
	if st.Hits != uint64(len(reqs)) || st.Misses != uint64(len(scs)) {
		t.Fatalf("cache counted %d hits, %d misses; want %d, %d", st.Hits, st.Misses, len(reqs), len(scs))
	}
	if st.Size != len(scs) {
		t.Fatalf("cache size = %d, want %d", st.Size, len(scs))
	}
}

func TestOptimizeBatchPerJobErrors(t *testing.T) {
	scs := batchScenarios(t, 2)
	reqs := []Request{
		scenarioRequest(scs[0], AlgC),
		{},
		{Query: scs[0].Query, Env: scs[0].Env, Alg: AlgC},
		scenarioRequest(scs[1], Algorithm(99)),
		scenarioRequest(scs[1], AlgC),
	}
	for _, cacheSize := range []int{-1, 64} {
		results := exactHandle(cacheSize).OptimizeBatch(reqs)
		if results[0].Err != nil || results[4].Err != nil {
			t.Fatalf("good requests failed: %v, %v", results[0].Err, results[4].Err)
		}
		if !errors.Is(results[1].Err, ErrBadRequest) {
			t.Fatalf("empty request error: %v", results[1].Err)
		}
		if !errors.Is(results[2].Err, errNoCatalog) {
			t.Fatalf("catalog-less request error: %v", results[2].Err)
		}
		if !errors.Is(results[3].Err, ErrUnknownAlg) {
			t.Fatalf("unknown alg error: %v", results[3].Err)
		}
	}
}

func TestOptimizeBatchEmpty(t *testing.T) {
	if got := exactHandle(0).OptimizeBatch(nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}

func TestCacheKeyErrors(t *testing.T) {
	sc := &Scenario{}
	if _, err := sc.AppendCacheKey(nil, AlgC, 0, 0); !errors.Is(err, errNilScenario) {
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

// TestBatchOverflowingSelLawsFailsOneRequest: an Algorithm D request whose
// two selectivity laws on one table pair multiply past float range fails
// with its own Err; the batch's other requests are served.
func TestBatchOverflowingSelLawsFailsOneRequest(t *testing.T) {
	cat := catalog.New()
	for _, name := range []string{"a", "b"} {
		tab, err := catalog.NewTable(name, 100, 10_000,
			catalog.Column{Name: "x", Distinct: 100, Max: 1e6},
			catalog.Column{Name: "y", Distinct: 100, Max: 1e6})
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	const sql = "SELECT * FROM a, b WHERE a.x = b.x AND a.y = b.y"
	huge := dist.MustNew([]float64{1e200, 2e200}, []float64{1, 1})
	laws := map[string]dist.Dist{"a.x=b.x": huge, "a.y=b.y": huge}
	env := envsim.Env{Mem: dist.Point(100)}
	o := NewOptimizer(cat, Config{})
	resps := o.OptimizeBatch([]Request{
		{SQL: sql, Env: env, Alg: AlgD},
		{SQL: sql, Env: env, Alg: AlgD, SelLaws: laws},
		{SQL: sql, Env: env, Alg: AlgC},
	})
	for i, r := range resps {
		if failed := r.Err != nil; failed != (i == 1) {
			t.Errorf("request %d: err = %v", i, r.Err)
		}
	}
	if !errors.Is(resps[1].Err, dist.ErrBadDist) {
		t.Fatalf("overflowing request: err = %v, want a dist.ErrBadDist error", resps[1].Err)
	}
}

// TestBatchGroupingIgnoresHash: OptimizeBatch's key index groups requests
// by their key bytes, whatever their grouping hashes. With every key forced
// onto one hash, with some forced together, and under fresh maphash seeds,
// equal keys share a group, unequal ones never do, and groups and their
// duplicates keep request order.
func TestBatchGroupingIgnoresHash(t *testing.T) {
	keys := []string{"a", "b", "a", "ab", "b", "", "a", "", "ba"}
	wantReps := []int{0, 1, 3, 5, 8}
	wantDups := [][]int{{2, 6}, {4}, nil, {7}, nil}
	hashes := map[string]func([]byte) uint64{
		"one hash":  func([]byte) uint64 { return 0 },
		"by length": func(k []byte) uint64 { return uint64(len(k)) },
	}
	for i := range 4 {
		seed := maphash.MakeSeed()
		hashes[fmt.Sprintf("seed %d", i)] = func(k []byte) uint64 { return maphash.Bytes(seed, k) }
	}
	for name, hash := range hashes {
		b := &batch{index: map[uint64]int{}, next: make([]int, len(keys))}
		for i, k := range keys {
			b.calls = append(b.calls, &call{key: []byte(k)})
			if gi := b.find(b.calls[i].key, hash(b.calls[i].key)); gi >= 0 {
				b.join(gi, i)
			} else {
				b.open(i, hash(b.calls[i].key))
			}
		}
		if len(b.groups) != len(wantReps) {
			t.Fatalf("%s: %d groups, want %d", name, len(b.groups), len(wantReps))
		}
		for gi, g := range b.groups {
			var dups []int
			for d := g.first; d >= 0; d = b.next[d] {
				dups = append(dups, d)
			}
			if g.rep != wantReps[gi] || !slices.Equal(dups, wantDups[gi]) {
				t.Fatalf("%s: group %d is %d with %v, want %d with %v", name, gi, g.rep, dups, wantReps[gi], wantDups[gi])
			}
		}
	}
}

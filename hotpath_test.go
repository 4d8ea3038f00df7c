// Hot-path gates: the allocation contracts and concurrency properties of
// the serving path (see DESIGN.md "Hot path"). These run as part of the
// ordinary test suite so a regression that reintroduces per-request
// garbage — a signature rebuilt on the heap, a scenario that escapes, a
// DP table that stops pooling — fails `go test ./...`, not just a
// benchmark someone has to read.
package lecopt

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"lecopt/internal/core"
	"lecopt/internal/cost"
	"lecopt/internal/engine"
	"lecopt/internal/feedback"
	"lecopt/internal/plan"
	"lecopt/internal/plancache"
	"lecopt/internal/storage"
	"lecopt/internal/workload"
)

// hotPathRequests builds the mixed 2-5 table request corpus the
// allocation gates and benchmarks share.
func hotPathRequests(t testing.TB, n int) []Request {
	t.Helper()
	envs, err := workload.StandardEnvs()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	shapes := []workload.Shape{workload.Chain, workload.Star, workload.Clique, workload.Random}
	reqs := make([]Request, n)
	for i := range reqs {
		sc, err := workload.Generate(workload.DefaultSpec(2+rng.Intn(4), shapes[i%len(shapes)]), rng)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = Request{Cat: sc.Cat, Query: sc.Block, Env: envs[i%len(envs)].Env, Alg: AlgC}
	}
	return reqs
}

// TestWarmHitZeroAllocs pins the tentpole claim: a plan-cache hit performs
// zero heap allocations — the key is built in a pooled buffer, hashed on
// the stack, and looked up by raw bytes; the request's call is pooled. It
// holds for Optimize and for the cache-only Cached the resilience layer
// serves from, since both go through the same lookup.
func TestWarmHitZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	reqs := hotPathRequests(t, 64)
	opt := New(nil)
	for _, r := range reqs {
		if _, err := opt.Optimize(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		hit  func(Request) bool
	}{
		{"Optimize", func(r Request) bool { resp, err := opt.Optimize(r); return err == nil && resp.CacheHit }},
		{"Cached", func(r Request) bool { _, ok := opt.Cached(r); return ok }},
	} {
		i := 0
		allocs := testing.AllocsPerRun(500, func() {
			if !tc.hit(reqs[i%len(reqs)]) {
				t.Fatalf("%s: warm request %d missed", tc.name, i%len(reqs))
			}
			i++
		})
		if allocs != 0 {
			t.Fatalf("warm %s hit allocates: %.2f allocs/op, want 0", tc.name, allocs)
		}
	}
}

// sqlForm rewrites pre-parsed requests as the SQL text a server receives.
func sqlForm(reqs []Request) []Request {
	out := make([]Request, len(reqs))
	for i, r := range reqs {
		out[i] = r
		out[i].Query, out[i].SQL = nil, r.Query.String()
	}
	return out
}

// TestWarmSQLZeroAllocs is TestWarmHitZeroAllocs for requests that arrive as
// SQL text: the statement memo resolves a repeated text to its validated
// block with one byte-keyed lookup on a pooled buffer, so the whole warm
// request — text in, cached plan out — still allocates nothing.
func TestWarmSQLZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	reqs := sqlForm(hotPathRequests(t, 64))
	opt := New(nil)
	for _, r := range reqs {
		if _, err := opt.Optimize(r); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		resp, err := opt.Optimize(reqs[i%len(reqs)])
		if err != nil || !resp.CacheHit {
			t.Fatalf("warm SQL request: hit=%v err=%v", resp.CacheHit, err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("warm SQL-text hit allocates: %.2f allocs/op, want 0", allocs)
	}
}

// observeAll feeds the handle one executed size per request, so every
// request in reqs is costed with an observed hint from then on.
func observeAll(t testing.TB, opt *Optimizer, reqs []Request) {
	t.Helper()
	for i, r := range reqs {
		err := opt.Observe(Feedback{Cat: r.Cat, Query: r.Query, Sizes: map[string]float64{
			feedback.SetKey(r.Query.Tables[0], r.Query.Tables[1]): float64(100 + 37*i),
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestWarmHitWithFeedbackZeroAllocs is TestWarmHitZeroAllocs on a handle
// that has observed a size for every request, pre-parsed and as SQL text:
// the feedback key is built in the pooled call and the store's immutable
// hint snapshot is costed as is, so feedback adds no allocation to a hit.
func TestWarmHitWithFeedbackZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	reqs := hotPathRequests(t, 64)
	opt := New(nil)
	observeAll(t, opt, reqs)
	if q, _ := opt.FeedbackStats(); q != len(reqs) {
		t.Fatalf("feedback store holds %d queries, want %d", q, len(reqs))
	}
	for _, tc := range []struct {
		name string
		reqs []Request
	}{{"pre-parsed", reqs}, {"SQL", sqlForm(reqs)}} {
		for _, r := range tc.reqs { // the SQL pass fills the statement memo
			if _, err := opt.Optimize(r); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(500, func() {
			resp, err := opt.Optimize(tc.reqs[i%len(tc.reqs)])
			if err != nil || !resp.CacheHit {
				t.Fatalf("%s: warm request %d: hit=%v err=%v", tc.name, i%len(tc.reqs), resp.CacheHit, err)
			}
			i++
		})
		if allocs != 0 {
			t.Fatalf("warm %s hit with feedback allocates: %.2f allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestConvergedObserveZeroAllocs: once a query's observed sizes have
// converged, Observe republishes no hint snapshot, and the feedback key is
// built on the stack and looked up by its bytes, so an observation
// allocates nothing.
func TestConvergedObserveZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	reqs := hotPathRequests(t, 16)
	opt := New(nil)
	fbs := make([]Feedback, len(reqs))
	for i, r := range reqs {
		fbs[i] = Feedback{Cat: r.Cat, Query: r.Query, Sizes: map[string]float64{
			feedback.SetKey(r.Query.Tables[0], r.Query.Tables[1]): float64(100 + 37*i),
		}}
		for range 2 { // the second observation of a constant size moves nothing
			if err := opt.Observe(fbs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		if err := opt.Observe(fbs[i%len(fbs)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("converged Observe allocates %.2f allocs/op, want 0", allocs)
	}
}

// TestMissPathAllocBudget bounds the full optimize path — request
// resolution, cache key, the whole dynamic program, the report — for every
// algorithm. Unlike the hit gate this cannot be zero: the report and its
// plan tree are real results. What it pins is that the DP's working state
// stays pooled — tables, top-c lists, join nodes, Algorithm D's size laws,
// candidate buffers, for every algorithm alike — that prepare's per-request
// context does too, that no score tie-break builds a signature string, and
// that a winner is copied once (two blocks) and priced once. What is left
// is the answer (the plan's two blocks, its PhaseEC) plus, where the report
// prices the plan again (LSC, D, and A and B under a chain), that walk and
// the chain's phase laws, and B's buffer for pricing its candidates.
func TestMissPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	envs, err := workload.StandardEnvs()
	if err != nil {
		t.Fatal(err)
	}
	var markov workload.NamedEnv
	for _, e := range envs {
		if e.Name == "markov-sticky" {
			markov = e
		}
	}
	if markov.Env.Chain == nil {
		t.Fatal("markov-sticky environment missing")
	}
	for _, tc := range []struct {
		name   string
		budget float64 // ≈ 1.25 × measured; measured (and earlier figures, newest first) alongside
		shape  func(*Request)
	}{
		{"LSC", 14, func(r *Request) { r.Alg = AlgLSCMode }},                     // 11 (49, 51, 61, 66, 292)
		{"A", 13, func(r *Request) { r.Alg = AlgA }},                             // 10 (77, 89, 117, 117, 992)
		{"B", 14, func(r *Request) { r.Alg = AlgB }},                             // 11 (65, 75, 82, 2 436, 2 444, 61 841)
		{"C", 3, func(r *Request) { r.Alg = AlgC; r.Env.Chain = nil }},           // 2 (43, 43, 51, 56, 247)
		{"C-dynamic", 25, func(r *Request) { r.Alg = AlgC; r.Env = markov.Env }}, // 20 (77, 77, 95, 100, 257)
		{"D", 14, func(r *Request) { r.Alg = AlgD }},                             // 11 (51, 51, 59, 643, 1 297, 2 445)
	} {
		t.Run(tc.name, func(t *testing.T) {
			reqs := hotPathRequests(t, 64)
			for i := range reqs {
				tc.shape(&reqs[i])
			}
			opt := New(nil, WithoutPlanCache())
			for _, r := range reqs[:8] { // warm the scratch pools
				if _, err := opt.Optimize(r); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			allocs := testing.AllocsPerRun(500, func() {
				if _, err := opt.Optimize(reqs[i%len(reqs)]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs > tc.budget {
				t.Fatalf("cache-miss Optimize (%s) allocates %.1f allocs/op, budget %.0f", tc.name, allocs, tc.budget)
			}
		})
	}
}

// TestExecutePlanAllocBudget bounds what the page engine allocates to
// execute one plan at the bench/ exec_loop scale (6-tuple pages, 1 200
// keys, 64 ⋈ 96 ⋈ 128 pages, root sort), per join method. Rows, pages and
// temp relations are real results, so the floor is not zero; what the
// budget pins is that nothing is allocated per output row, per cached
// page, per sort comparison, per partitioned tuple or per spilled page
// again.
func TestExecutePlanAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(1))
	store := storage.NewStore()
	var scans []*plan.Node
	for i, pages := range []int{64, 96, 128} {
		name := fmt.Sprintf("t%d", i)
		rel, err := storage.Generate(storage.GenSpec{Name: name, Pages: pages, TuplesPerPage: 6, KeyRange: 1200}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Add(rel); err != nil {
			t.Fatal(err)
		}
		scans = append(scans, plan.NewScan(name, plan.AccessHeap, "", 1, float64(pages)))
	}
	eng := engine.New(store)
	for _, tc := range []struct {
		method cost.JoinMethod
		budget float64 // ≈ 1.25 × measured; measured (and earlier figures, newest first) alongside
	}{
		{cost.SortMerge, 643}, // 514 (972, 5 598)
		{cost.GraceHash, 626}, // 501 (946, 3 988)
		{cost.PageNL, 944},    // 755 (779, 20 581)
		{cost.BlockNL, 659},   // 527 (551, 3 455)
	} {
		t.Run(tc.method.String(), func(t *testing.T) {
			p := plan.NewSort(
				plan.NewJoin(tc.method, plan.NewJoin(tc.method, scans[0], scans[1], 30, plan.Order{}), scans[2], 30, plan.Order{}),
				plan.Order{Table: "t0", Column: "k"})
			allocs := testing.AllocsPerRun(10, func() {
				res, err := eng.ExecutePlan(p, []float64{12, 24})
				if err != nil {
					t.Fatal(err)
				}
				store.Drop(res.Output.Name)
			})
			if allocs > tc.budget {
				t.Fatalf("ExecutePlan (%v) allocates %.0f allocs/op, budget %.0f", tc.method, allocs, tc.budget)
			}
		})
	}
}

// TestConcurrentOptimizeObserve drives Optimize, Cached, OptimizeBatch and
// Observe through one handle from many goroutines — the serving pattern the
// sharded feedback store exists for. Run under -race this proves the shard
// locking, the lock-free observation counter, the pooled per-request state
// the three serving entry points share, and the hint snapshots Observe
// republishes while batches resolve requests on their workers and overlay
// explicit SizeHints on them; under the plain suite it still checks that
// concurrent feedback never corrupts results (every optimized response
// must carry a plan, and a Cached hit must too).
func TestConcurrentOptimizeObserve(t *testing.T) {
	reqs := hotPathRequests(t, 32)
	explicit := make([]Request, len(reqs))
	for i, r := range reqs {
		explicit[i] = r
		explicit[i].Opts = &Options{SizeHints: map[string]float64{
			feedback.SetKey(r.Query.Tables[len(r.Query.Tables)-1]): float64(20 + i),
		}}
	}
	opt := New(nil, WithPlanCache(256))
	var wg sync.WaitGroup
	const goroutines, iters = 10, 200
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r := reqs[(g*iters+i)%len(reqs)]
				switch g % 5 {
				case 0:
					resp, err := opt.Optimize(r)
					if err != nil {
						errs <- err
						return
					}
					if resp.Plan == nil {
						errs <- fmt.Errorf("goroutine %d iter %d: nil plan", g, i)
						return
					}
				case 1:
					if resp, ok := opt.Cached(r); resp.Err != nil || ok != (resp.Plan != nil) {
						errs <- fmt.Errorf("goroutine %d iter %d: Cached ok=%v plan=%v err=%v", g, i, ok, resp.Plan != nil, resp.Err)
						return
					}
				case 2:
					for j, resp := range opt.OptimizeBatch([]Request{r, reqs[(g*iters+i+1)%len(reqs)], r}) {
						if resp.Err != nil || resp.Plan == nil {
							errs <- fmt.Errorf("goroutine %d iter %d: batch response %d: plan=%v err=%v", g, i, j, resp.Plan != nil, resp.Err)
							return
						}
					}
				case 3:
					j := (g*iters + i) % len(reqs)
					batch := []Request{explicit[j], r, explicit[(j+1)%len(reqs)], explicit[j]}
					for k, resp := range opt.OptimizeBatch(batch) {
						if resp.Err != nil || resp.Plan == nil {
							errs <- fmt.Errorf("goroutine %d iter %d: hinted batch response %d: plan=%v err=%v", g, i, k, resp.Plan != nil, resp.Err)
							return
						}
					}
				default:
					err := opt.Observe(Feedback{Cat: r.Cat, Query: r.Query, Sizes: map[string]float64{
						feedback.SetKey(r.Query.Tables[0], r.Query.Tables[1]): float64(100 + i),
					}})
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// BenchmarkOptimizeHit measures the warm plan-cache hit path; run with
// -benchmem, the headline is 0 allocs/op.
func BenchmarkOptimizeHit(b *testing.B) {
	reqs := hotPathRequests(b, 64)
	opt := New(nil)
	for _, r := range reqs {
		if _, err := opt.Optimize(r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Optimize(reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeHitFeedback is BenchmarkOptimizeHit on a handle that has
// observed a size for every request; the difference between the two is the
// feedback key build and hint lookup. Headline: 0 allocs/op.
func BenchmarkOptimizeHitFeedback(b *testing.B) {
	reqs := hotPathRequests(b, 64)
	opt := New(nil)
	observeAll(b, opt, reqs)
	for _, r := range reqs {
		if _, err := opt.Optimize(r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Optimize(reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeHitSQL is BenchmarkOptimizeHit with the same requests as
// SQL text; the difference between the two is the statement-memo lookup.
func BenchmarkOptimizeHitSQL(b *testing.B) {
	reqs := sqlForm(hotPathRequests(b, 64))
	opt := New(nil)
	for _, r := range reqs {
		if _, err := opt.Optimize(r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Optimize(reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheKey measures the plan-cache key build alone — the layer a
// warm hit spends most of its time in — across the environment shapes that
// set the preimage size (point law, 4-bucket law, 4-state Markov chain),
// with and without executed-size hints. Headline: 0 allocs/op.
func BenchmarkCacheKey(b *testing.B) {
	envs, err := workload.StandardEnvs()
	if err != nil {
		b.Fatal(err)
	}
	byName := make(map[string]workload.NamedEnv, len(envs))
	for _, e := range envs {
		byName[e.Name] = e
	}
	gen, err := workload.Generate(workload.DefaultSpec(4, workload.Chain), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	hints := map[string]float64{
		feedback.SetKey(gen.Block.Tables[0], gen.Block.Tables[1]): 120,
		feedback.SetKey(gen.Block.Tables[1], gen.Block.Tables[2]): 3400,
	}
	for _, env := range []struct{ label, name string }{
		{"point", "point-1000"}, {"4-bucket", "zipf-levels"}, {"markov", "markov-sticky"},
	} {
		for _, hinted := range []bool{false, true} {
			sc := &Scenario{Cat: gen.Cat, Query: gen.Block, Env: byName[env.name].Env}
			label := env.label
			if hinted {
				sc.Opts.SizeHints = hints
				label += "+hints"
			}
			b.Run(label, func(b *testing.B) {
				key := make([]byte, 0, plancache.KeyLen)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if key, err = sc.AppendCacheKey(key[:0], AlgC, core.DefaultDriftBand, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkOptimizeMiss measures the uncached optimize path with pooled
// DP scratch (cache disabled so every iteration runs the dynamic program).
func BenchmarkOptimizeMiss(b *testing.B) {
	reqs := hotPathRequests(b, 64)
	opt := New(nil, WithoutPlanCache())
	for _, r := range reqs[:8] {
		if _, err := opt.Optimize(r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Optimize(reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObserveContended hammers the sharded feedback store from all
// cores: distinct queries hash to distinct shards, so throughput should
// scale instead of serializing on one store-wide mutex.
func BenchmarkObserveContended(b *testing.B) {
	reqs := hotPathRequests(b, 32)
	opt := New(nil, WithPlanCache(256))
	sizes := make([]map[string]float64, len(reqs))
	for i, r := range reqs {
		sizes[i] = map[string]float64{
			feedback.SetKey(r.Query.Tables[0], r.Query.Tables[1]): float64(100 + i),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			r := reqs[i%len(reqs)]
			if err := opt.Observe(Feedback{Cat: r.Cat, Query: r.Query, Sizes: sizes[i%len(sizes)]}); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

package optimizer

import (
	"fmt"
	"math/rand"
	"testing"

	"lecopt/internal/dist"
	"lecopt/internal/plan"
	"lecopt/internal/workload"
)

// wideScenario generates a deterministic n-table scenario whose DP ranks
// are wide enough to exercise the parallel enumeration.
func wideScenario(t testing.TB, n int, shape workload.Shape, seed int64) workload.Scenario {
	t.Helper()
	sc, err := workload.Generate(workload.DefaultSpec(n, shape), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestResultSurvivesScratchReuse guards the owned-plan contract from the
// behavioral side: a Result captured early, from any algorithm, must be
// unchanged — every node and scan predicate intact — after many later
// optimizations have recycled the pooled scratches its DP used and the
// pooled context whose scan nodes its leaves were copied from.
func TestResultSurvivesScratchReuse(t *testing.T) {
	mem := dist.MustNew([]float64{100, 2000}, []float64{1, 1})
	algs := map[string]func(workload.Scenario) (Result, error){
		"LSC": func(sc workload.Scenario) (Result, error) { return LSC(sc.Cat, sc.Block, Options{}, mem.Mean()) },
		"A":   func(sc workload.Scenario) (Result, error) { return AlgorithmA(sc.Cat, sc.Block, Options{}, mem) },
		"B":   func(sc workload.Scenario) (Result, error) { return AlgorithmB(sc.Cat, sc.Block, Options{}, mem, 3) },
		"C":   func(sc workload.Scenario) (Result, error) { return AlgorithmC(sc.Cat, sc.Block, Options{}, mem) },
		"D": func(sc workload.Scenario) (Result, error) {
			return AlgorithmD(sc.Cat, sc.Block, Options{}, mem, nil, nil)
		},
	}
	// A compiled predicate always names its column: a cleared one is a
	// predicate the context recycled under the Result. A plan always names
	// every table of the query: a cleared node is one a released scratch
	// recycled under it.
	dump := func(name string, p *plan.Node) string {
		if err := p.Validate(); err != nil || len(p.Relations()) != 6 {
			t.Fatalf("%s: plan %s over %d relations (%v): recycled under the Result", name, p.Signature(), len(p.Relations()), err)
		}
		out := p.String()
		p.Walk(func(n *plan.Node) {
			if n.Pred != nil {
				if n.Pred.Column == "" {
					t.Fatalf("%s: scan of %s carries a cleared predicate", name, n.Table)
				}
				out += fmt.Sprintf("\n%s %+v", n.Table, *n.Pred)
			}
		})
		return out
	}
	sc := wideScenario(t, 6, workload.Random, 42)
	first, want := map[string]Result{}, map[string]string{}
	preds := 0
	for name, run := range algs {
		res, err := run(sc)
		if err != nil {
			t.Fatal(err)
		}
		first[name], want[name] = res, dump(name, res.Plan)
		res.Plan.Walk(func(n *plan.Node) {
			if n.Pred != nil {
				preds++
			}
		})
	}
	if preds == 0 {
		t.Fatal("no plan carries a scan predicate: the scenario no longer exercises them")
	}
	for seed := int64(0); seed < 30; seed++ {
		other := wideScenario(t, 3+int(seed%5), workload.Shape(seed%4), 6000+seed)
		for _, run := range algs {
			if _, err := run(other); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, res := range first {
		if got := dump(name, res.Plan); got != want[name] {
			t.Fatalf("%s: captured plan mutated by pool reuse:\n before %s\n after  %s", name, want[name], got)
		}
	}
}

// TestResultOwnsNoArenaNodes checks the contract directly: no node
// reachable from a Result of any algorithm, and no scan predicate, is one
// of the pooled context's that optimized it, which the next request
// refills. The DP table holds no plan nodes, so the context is the one
// pooled store a built plan could point into. A single goroutine's
// sync.Pool gives back the context the algorithm just released; a fresh
// one (the race detector drops some Puts) has nothing to check against.
func TestResultOwnsNoArenaNodes(t *testing.T) {
	mem := dist.MustNew([]float64{100, 2000}, []float64{1, 1})
	algs := map[string]func(workload.Scenario) (Result, error){
		"LSC": func(sc workload.Scenario) (Result, error) { return LSC(sc.Cat, sc.Block, Options{}, mem.Mean()) },
		"A":   func(sc workload.Scenario) (Result, error) { return AlgorithmA(sc.Cat, sc.Block, Options{}, mem) },
		"B":   func(sc workload.Scenario) (Result, error) { return AlgorithmB(sc.Cat, sc.Block, Options{}, mem, 3) },
		"C":   func(sc workload.Scenario) (Result, error) { return AlgorithmC(sc.Cat, sc.Block, Options{}, mem) },
		"D": func(sc workload.Scenario) (Result, error) {
			return AlgorithmD(sc.Cat, sc.Block, Options{}, mem, nil, nil)
		},
	}
	checked := 0
	for seed := int64(42); seed < 48; seed++ {
		sc := wideScenario(t, 6, workload.Random, seed)
		for name, run := range algs {
			res, err := run(sc)
			if err != nil {
				t.Fatal(err)
			}
			used := ctxPool.Get().(*ctx)
			scans, preds := used.scans[:cap(used.scans)], used.preds[:cap(used.preds)]
			res.Plan.Walk(func(n *plan.Node) {
				for i := range scans {
					if n == &scans[i] {
						t.Fatalf("%s seed %d: Result plan node %p lives in the pooled context", name, seed, n)
					}
				}
				if n.Pred == nil || len(preds) == 0 {
					return
				}
				checked++
				for i := range preds {
					if n.Pred == &preds[i] {
						t.Fatalf("%s seed %d: Result scan predicate %p lives in the pooled context", name, seed, n.Pred)
					}
				}
			})
			ctxPool.Put(used)
		}
	}
	if checked == 0 {
		t.Skip("no plan carried a scan predicate out of a reused context: nothing to check")
	}
}

// TestDistAllocsNearBest holds Algorithm D to the pooled kernel: once the
// scratch is warm, an 8-table D pass — size laws, σ-chains and all — may
// allocate at most twice what Algorithm C's pass does on the same query,
// each pass copying its winner out. Laws built on the heap again would put
// it orders of magnitude over. Both passes run on a scratch the test holds
// (setUp, reset), as dpBest and dpLaws run on a pooled one, so a pool that
// drops what it is given (the race detector drops a quarter of all Puts)
// cannot charge a rebuilt scratch to either.
func TestDistAllocsNearBest(t *testing.T) {
	mem := dist.MustNew([]float64{64, 512, 4096}, []float64{1, 2, 1})
	sc := wideScenario(t, 8, workload.Random, 4001)
	c, err := prepare(sc.Cat, sc.Block, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sel := map[string]dist.Dist{}
	for _, j := range sc.Block.Joins[:2] {
		sel[EdgeKey(j)] = dist.MustNew([]float64{0.001, 0.01, 0.1}, []float64{1, 4, 1})
	}
	if err := c.setSelLaws(sel); err != nil {
		t.Fatal(err)
	}
	s := scorer{laws: []dist.Dist{mem}, model: c.opts.CostModel}
	scr := new(dpScratch)
	measure := func(pass func() (Result, error)) float64 {
		run := func() {
			scr.setUp(keepBest, 1, c.n)
			if _, err := pass(); err != nil {
				t.Fatal(err)
			}
			scr.reset()
		}
		run() // warm the scratch
		return testing.AllocsPerRun(20, run)
	}
	best := measure(func() (Result, error) { return c.best(scr, s) })
	law := measure(func() (Result, error) {
		s, err := c.lawScorer(scr, mem)
		if err != nil {
			return Result{}, err
		}
		return c.best(scr, s)
	})
	t.Logf("warm 8-table pass: C %.0f allocs, D %.0f", best, law)
	if law > 2*best {
		t.Fatalf("the D pass allocates %.0f, over twice C's %.0f", law, best)
	}
}

// TestReleaseTrimsWideMasks holds release to maxPooledSlots for every buffer
// the table sizes: after a 20-table pass the entry table holds two cells
// for each of its 2^20 masks, and the pool must not keep it.
func TestReleaseTrimsWideMasks(t *testing.T) {
	sc := wideScenario(t, 20, workload.Chain, 4100)
	c, err := prepare(sc.Cat, sc.Block, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := c.pointScorer(1000)
	scr := getScratch(keepBest, 1, c.n)
	c.run(scr, s, c.greedy(s).score)
	if cap(scr.ents) <= maxPooledSlots {
		scr.release()
		t.Fatalf("a 20-table pass kept %d entries, not over maxPooledSlots", cap(scr.ents))
	}
	scr.release()
	if scr.ents != nil || scr.held != nil || scr.bar != nil {
		t.Fatalf("released scratch keeps %d entries, %d counts and %d bars", cap(scr.ents), cap(scr.held), cap(scr.bar))
	}
}

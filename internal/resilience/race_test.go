package resilience

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"lecopt/internal/core"
)

// TestConcurrentDoAndObserve is the race-detector check: many goroutines
// drive Do through one wrapper, each on its own advancing timeline, and
// call the wrapped handle's Observe beside it. Under `go test -race` this
// proves the settle path does not contend unsafely with the serve path;
// under plain `go test` it still checks that every request settles to one
// decision and that the hedge outcomes reconcile.
func TestConcurrentDoAndObserve(t *testing.T) {
	cat := testCatalog(t, 4)
	opt := core.NewOptimizer(nil, core.Config{})
	w := New(opt, Config{
		Budget:  BudgetSpec{Capacity: 5000, RefillPerSec: 1_000_000},
		Breaker: BreakerSpec{Window: 8, Threshold: 0.6, MinSamples: 6, Cooldown: 500},
		Hedge:   HedgeSpec{Quantile: 0.9, MinSamples: 4, Startup: 10},
		Latency: flatLatency,
	})

	const goroutines, perG = 8, 40
	sqls := []string{
		"SELECT * FROM t0, t1 WHERE t0.k = t1.k",
		"SELECT * FROM t0, t2 WHERE t0.k = t2.k",
		"SELECT * FROM t1, t3 WHERE t1.k = t3.k",
		"SELECT * FROM t2, t3 WHERE t2.k = t3.k",
	}
	outs := make([][]Outcome, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var at Micros
			for i := 0; i < perG; i++ {
				q := rng.Intn(len(sqls))
				out := w.Do(Request{
					Tenant: fmt.Sprintf("t-%d", rng.Intn(6)), Query: fmt.Sprintf("q%d", q), At: at,
					Core:          coreReq(cat, sqls[q]),
					PrimaryJitter: 0.5 + rng.Float64()*2,
					HedgeJitter:   0.5 + rng.Float64()*2,
				})
				if out.Err != nil {
					t.Errorf("Do failed: %v", out.Err)
					return
				}
				outs[g] = append(outs[g], out)
				if i%10 == 0 {
					if err := opt.Observe(core.Feedback{
						SQL: sqls[q], Cat: cat, Sizes: map[string]float64{"j": 40},
					}); err != nil {
						t.Errorf("Observe failed: %v", err)
						return
					}
					at += 100
				}
			}
		}(g)
	}
	wg.Wait()

	var all []Outcome
	for _, o := range outs {
		all = append(all, o...)
	}
	if len(all) != goroutines*perG {
		t.Fatalf("lost requests: %d of %d", len(all), goroutines*perG)
	}
	byDecision, byHedge := tally(t, all)
	if fired := byDecision[decisionColdHedged]; byHedge[hedgeWin]+byHedge[hedgeLoss]+byHedge[hedgeCancel] != fired {
		t.Fatalf("hedge identity broken under concurrency: %d fired, %v", fired, byHedge)
	}
}

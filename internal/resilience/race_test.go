package resilience

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"lecopt/internal/core"
)

// TestConcurrentDoAndObserve is the race-detector satellite: many
// goroutines drive Optimize and Observe through one wrapper, each on its
// own advancing timeline. Under `go test -race` this proves the settle
// path does not contend unsafely with the serve path; under plain
// `go test` it still checks the counters reconcile.
func TestConcurrentDoAndObserve(t *testing.T) {
	cat := testCatalog(t, 4)
	w := New(core.NewOptimizer(nil, core.Config{}), Config{
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
				if i%10 == 0 {
					if err := w.Observe(core.Feedback{
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

	s := w.Stats()
	if s.Requests != goroutines*perG {
		t.Fatalf("lost requests: %d of %d", s.Requests, goroutines*perG)
	}
	if s.Errors != 0 {
		t.Fatalf("%d errors", s.Errors)
	}
	if want := goroutines * perG / 10; s.ObserveCalls != want {
		t.Fatalf("observe calls %d, want %d", s.ObserveCalls, want)
	}
	decided := 0
	for _, dc := range s.Decisions {
		decided += dc.Count
	}
	if decided != s.Requests {
		t.Fatalf("decisions sum to %d, want %d requests", decided, s.Requests)
	}
	if s.HedgeWins+s.HedgeLosses+s.HedgeCancels != s.HedgesFired {
		t.Fatalf("hedge identity broken under concurrency: %+v", s)
	}
}

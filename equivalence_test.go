// API-equivalence differential harness: the stateful Optimizer service
// must answer exactly as the one-shot Scenario it resolves requests into.
// Over the 200-scenario corpus (differential_test.go), Optimizer.Optimize and
// Optimizer.OptimizeBatch must return byte-identical PlanReports to
// Scenario.Optimize — cold, and warm through the drift-banded plan cache.
package lecopt

import (
	"testing"
)

// responseKey renders every PlanReport field of a Response, mirroring
// batchReportKey for the service surface.
func responseKey(r Response) string {
	return batchReportKey(r.PlanReport)
}

// corpusRequest converts a corpus scenario into the service Request form.
func corpusRequest(sc *Scenario, alg Algorithm) Request {
	return Request{
		Cat:   sc.Cat,
		Query: sc.Query,
		Env:   sc.Env,
		Alg:   alg,
	}
}

// TestEquivalenceOptimize runs each corpus scenario through a fresh
// handle's Optimize and requires byte-identical reports to the legacy
// Scenario.Optimize path, for a classical and an LEC algorithm.
func TestEquivalenceOptimize(t *testing.T) {
	corpus := diffCorpus(t)
	for _, alg := range []Algorithm{AlgLSCMode, AlgC} {
		opt := New(nil)
		for i, sc := range corpus {
			legacy, err := sc.Optimize(alg)
			if err != nil {
				t.Fatalf("scenario %d: legacy %s: %v", i, alg, err)
			}
			resp, err := opt.Optimize(corpusRequest(sc, alg))
			if err != nil {
				t.Fatalf("scenario %d: handle %s: %v", i, alg, err)
			}
			if got, want := responseKey(resp), batchReportKey(legacy); got != want {
				t.Errorf("scenario %d (%s):\n got %s\nwant %s", i, alg, got, want)
			}
		}
	}
}

// TestEquivalenceOptimizeBatch runs the whole corpus through a handle's
// OptimizeBatch — cold, then warm on the same handle — and requires
// byte-identical reports to the sequential legacy path both times, with
// the warm pass fully served from the drift-banded plan cache.
func TestEquivalenceOptimizeBatch(t *testing.T) {
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
			if got := responseKey(r); got != want[i] {
				t.Errorf("%s: scenario %d:\n got %s\nwant %s", label, i, got, want[i])
			}
		}
	}
	opt := New(nil)
	check("cold", opt.OptimizeBatch(reqs))
	warm := opt.OptimizeBatch(reqs)
	check("warm", warm)
	hits := 0
	for _, r := range warm {
		if r.CacheHit {
			hits++
		}
	}
	if hits != len(reqs) {
		t.Errorf("warm pass: %d/%d cache hits", hits, len(reqs))
	}
	st := opt.CacheStats()
	if st.Evictions != 0 {
		t.Errorf("corpus should fit the default cache: %d evictions", st.Evictions)
	}
	occupancy := 0
	for _, n := range st.ShardSizes {
		occupancy += n
	}
	if occupancy != st.Size || st.Size == 0 {
		t.Errorf("shard occupancy %d disagrees with size %d", occupancy, st.Size)
	}
}

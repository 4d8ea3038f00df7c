package resilience

import (
	"reflect"
	"testing"

	"lecopt/internal/catalog"
	"lecopt/internal/core"
	"lecopt/internal/dist"
	"lecopt/internal/envsim"
)

// TestDoServesCachedThenOptimizes: the first Do of a request misses the
// plan cache, optimizes and is priced by the cold formula; the repeat is
// served from cache at the Hit price and leaves the cache counters as
// they were, because a cache-only probe counts nothing.
func TestDoServesCachedThenOptimizes(t *testing.T) {
	cat := catalog.New()
	for _, name := range []string{"t0", "t1"} {
		tab, err := catalog.NewTable(name, 1000, 10_000,
			catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: 600, Min: 0, Max: 1e6})
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	lat := LatencySpec{Hit: 7, ColdBase: 1000, PerCandidate: 40, PerProbe: 5}
	w := New(core.NewOptimizer(nil, core.Config{}), Config{Latency: lat})
	req := Request{Tenant: "t", Query: "q", Core: core.Request{
		SQL: "SELECT * FROM t0, t1 WHERE t0.k = t1.k", Cat: cat,
		Env: envsim.Env{Mem: dist.Point(2000)}, Alg: core.AlgC,
	}}

	first := w.Do(req)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.CacheHit || first.Candidates == 0 {
		t.Fatalf("first Do: CacheHit %v, %d candidates; want an optimization", first.CacheHit, first.Candidates)
	}
	if want := lat.ColdBase + lat.PerCandidate*int64(first.Candidates) + lat.PerProbe*int64(first.Probes); first.Served != want {
		t.Fatalf("first Do served at %d, want the cold price %d", first.Served, want)
	}
	stats := w.opt.CacheStats()

	again := w.Do(req)
	if again.Err != nil {
		t.Fatal(again.Err)
	}
	if !again.CacheHit || again.Served != lat.Hit {
		t.Fatalf("repeat Do: CacheHit %v served at %d; want a hit at %d", again.CacheHit, again.Served, lat.Hit)
	}
	if again.Plan.Signature() != first.Plan.Signature() {
		t.Fatalf("repeat Do served %s, want the cached %s", again.Plan.Signature(), first.Plan.Signature())
	}
	if got := w.opt.CacheStats(); !reflect.DeepEqual(got, stats) {
		t.Fatalf("a cached Do changed CacheStats: %+v, was %+v", got, stats)
	}
}

package core

import (
	"testing"

	"lecopt/internal/catalog"
	"lecopt/internal/dist"
	"lecopt/internal/envsim"
	"lecopt/internal/query"
)

// edgeCat builds a catalog whose a.k distinct count, scaled by factor,
// sits near a floor(log2) band boundary (15.6 at factor 1: band 3; a
// 1.1x step crosses into band 4).
func edgeCat(t *testing.T, factor float64) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for _, spec := range []struct {
		name     string
		distinct float64
		pages    float64
	}{{"a", 15.6, 120}, {"b", 24, 80}} {
		tab, err := catalog.NewTable(spec.name, spec.pages, spec.pages*50,
			catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: spec.distinct * factor, Min: 0, Max: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func edgeReq(cat *catalog.Catalog) Request {
	return Request{
		Query: &query.Block{
			Tables: []string{"a", "b"},
			Joins: []query.Join{{
				Left:  query.ColRef{Table: "a", Column: "k"},
				Right: query.ColRef{Table: "b", Column: "k"},
			}},
		},
		Cat: cat,
		Env: envsim.Env{Mem: dist.Point(40)},
		Alg: AlgC,
	}
}

// TestHysteresisBridgesBandEdge: a drift step that crosses a floor(log2)
// band boundary no longer splits the plan cache — the stepped request is
// served from the neighbor band's entry (CacheHit) and the alias is
// re-cached under the new band's own key.
func TestHysteresisBridgesBandEdge(t *testing.T) {
	o := NewOptimizer(nil, Config{})

	first, err := o.Optimize(edgeReq(edgeCat(t, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("cold request cannot hit")
	}
	stepped, err := o.Optimize(edgeReq(edgeCat(t, 1.1)))
	if err != nil {
		t.Fatal(err)
	}
	if !stepped.CacheHit {
		t.Fatal("band-edge step split the cache despite hysteresis")
	}
	if stepped.Plan.Signature() != first.Plan.Signature() {
		t.Fatal("hysteresis served a different plan than the neighbor band's")
	}
	// The alias was written through: the new band now hits on its primary
	// key (a plain Get, no probing needed).
	again, err := o.Optimize(edgeReq(edgeCat(t, 1.1)))
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("alias was not re-cached under the stepped band's key")
	}
}

// TestHysteresisRespectsRealDrift: a full-band step (2x) is genuine
// statistics change and must still miss.
func TestHysteresisRespectsRealDrift(t *testing.T) {
	o := NewOptimizer(nil, Config{})
	if _, err := o.Optimize(edgeReq(edgeCat(t, 1))); err != nil {
		t.Fatal(err)
	}
	far, err := o.Optimize(edgeReq(edgeCat(t, 2.6)))
	if err != nil {
		t.Fatal(err)
	}
	if far.CacheHit {
		t.Fatal("a multi-band drift step must not be served by hysteresis")
	}
}

// TestHysteresisBatchPrefersOwnBand: a batched request whose own band is
// already cached must be served that entry — never a same-batch
// neighbor's — matching what a sequential Optimize returns: the band-edge
// probes run only after the primary key misses, so a warm near-boundary
// request keeps its entry.
func TestHysteresisBatchPrefersOwnBand(t *testing.T) {
	o := NewOptimizer(nil, Config{})
	// Warm the stepped band's own entry sequentially.
	warm, err := o.Optimize(edgeReq(edgeCat(t, 1.1)))
	if err != nil {
		t.Fatal(err)
	}
	// Batch the boundary's other side first, then the warm request.
	resps := o.OptimizeBatch([]Request{
		edgeReq(edgeCat(t, 1)),
		edgeReq(edgeCat(t, 1.1)),
	})
	for i, r := range resps {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	if resps[1].Plan.Signature() != warm.Plan.Signature() || !resps[1].CacheHit {
		t.Fatal("warm request was not served its own band's cached plan")
	}
	// And its entry survived: a sequential re-ask still hits it.
	again, err := o.Optimize(edgeReq(edgeCat(t, 1.1)))
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.Plan.Signature() != warm.Plan.Signature() {
		t.Fatal("warm band's cache entry was clobbered by the batch")
	}
	// The other side was cold: it is served the warm neighbor's plan by
	// the +margin probe or computes its own; either way it has a report.
	if resps[0].Plan == nil {
		t.Fatal("cold request got no plan")
	}
}

// TestHysteresisBatchDeterministic: in a batch holding band-edge
// neighbors, the stepped request is served the first request's plan across
// the edge, as a sequential Optimize would serve it.
func TestHysteresisBatchDeterministic(t *testing.T) {
	a := NewOptimizer(nil, Config{}).OptimizeBatch([]Request{
		edgeReq(edgeCat(t, 1)),
		edgeReq(edgeCat(t, 1.1)), // crosses the boundary: alias of the first
		edgeReq(edgeCat(t, 1)),
		edgeReq(edgeCat(t, 1.1)),
	})
	for i := range a {
		if a[i].Err != nil {
			t.Fatalf("request %d failed: %v", i, a[i].Err)
		}
	}
	// The band-edge neighbor was served the first request's plan.
	if !a[1].CacheHit || !a[3].CacheHit {
		t.Fatalf("band-edge neighbors not served the cached plan: %+v %+v", a[1].CacheHit, a[3].CacheHit)
	}
	if a[1].Plan.Signature() != a[0].Plan.Signature() {
		t.Fatal("band-edge neighbor got a different plan")
	}
}

package core

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"lecopt/internal/catalog"
	"lecopt/internal/dist"
	"lecopt/internal/envsim"
	"lecopt/internal/parametric"
	"lecopt/internal/query"
)

// The serve-path pin. A scripted sequence of Optimize, Cached and
// OptimizeBatch calls over catalogs placed on either side of two drift-band
// edges is rendered one line per step — every response's plan, every bit of
// its EC, CacheHit, Parametric and Err, then the plan cache's
// hits/misses/evictions/size — and compared with testdata/serve_path.golden.
// Every batch line is also checked against a twin handle that runs the same
// requests through Optimize in order. `-update-serve-pin` re-records the
// golden and is only legitimate for a change that means to alter what the
// serving path answers or counts.
//
// The three edge catalogs differ in the distinct counts of a.k and b.k only
// (floor(log2) bands in brackets; ±BandMargin moves a count across an edge
// only when it sits within a quarter band of it):
//
//	lo  a.k 1000 [9]   b.k 1500 [10]   +margin keys as mid
//	mid a.k 1060 [10]  b.k 2000 [10]   −margin keys as lo, +margin keys as hi
//	hi  a.k 1300 [10]  b.k 2100 [11]   −margin keys as mid
//
// so a primary miss on mid finds lo's plan if −margin is probed first and
// hi's if the order flips, and the two plans differ in EC. in1/in2 share one
// band far from every edge: both probe keys equal their primary key.

var updateServePin = flag.Bool("update-serve-pin", false, "re-record testdata/serve_path.golden")

func pinCat(t *testing.T, aDistinct, bDistinct float64) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for _, spec := range []struct {
		name            string
		distinct, pages float64
	}{{"a", aDistinct, 120}, {"b", bDistinct, 80}, {"c", 200, 60}} {
		tab, err := catalog.NewTable(spec.name, spec.pages, spec.pages*50,
			catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: spec.distinct, Min: 0, Max: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

const pinSQL = "SELECT * FROM a, b, c WHERE a.k = b.k AND b.k = c.k"

func pinBlock() *query.Block {
	col := func(t string) query.ColRef { return query.ColRef{Table: t, Column: "k"} }
	return &query.Block{
		Tables: []string{"a", "b", "c"},
		Joins:  []query.Join{{Left: col("a"), Right: col("b")}, {Left: col("b"), Right: col("c")}},
	}
}

func pinResponse(r Response) string {
	if r.Err != nil {
		return fmt.Sprintf("err(%v)", r.Err)
	}
	if r.Plan == nil {
		return "none"
	}
	h := fnv.New32a()
	h.Write([]byte(r.Plan.Signature()))
	s := fmt.Sprintf("%08x/%016x", h.Sum32(), math.Float64bits(r.EC))
	if r.CacheHit {
		s += "/hit"
	}
	if r.Parametric {
		s += "/parametric"
	}
	return s
}

func TestServePathPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden records amd64 float bits")
	}
	mem, err := dist.Bimodal(12, 90, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	env := envsim.Env{Mem: mem}
	blk := pinBlock()
	lo, mid, hi := pinCat(t, 1000, 1500), pinCat(t, 1060, 2000), pinCat(t, 1300, 2100)
	in1, in2 := pinCat(t, 2600, 1500), pinCat(t, 3000, 1500)
	req := func(cat *catalog.Catalog) Request { return Request{Query: blk, Cat: cat, Env: env, Alg: AlgC} }

	var lines []string
	line := func(o *Optimizer, step string, resps ...Response) string {
		parts := make([]string, len(resps))
		for i, r := range resps {
			parts[i] = pinResponse(r)
		}
		st := o.CacheStats()
		return fmt.Sprintf("%s: %s | %d/%d/%d/%d", step, strings.Join(parts, " "),
			st.Hits, st.Misses, st.Evictions, st.Size)
	}
	record := func(o *Optimizer, step string, resps ...Response) {
		lines = append(lines, line(o, step, resps...))
	}
	optimize := func(o *Optimizer, step string, r Request) Response {
		resp, _ := o.Optimize(r)
		record(o, step, resp)
		return resp
	}
	cached := func(o *Optimizer, step string, r Request, margins ...float64) {
		resp, ok := o.Cached(r, margins...)
		if ok != (resp.Plan != nil) {
			t.Fatalf("%s: ok=%v with plan=%v", step, ok, resp.Plan != nil)
		}
		record(o, step, resp)
	}

	// Sequential: Optimize and Cached on one banded handle.
	o := NewOptimizer(nil, Config{})
	rlo := optimize(o, "seq/optimize-lo", req(lo))
	rhi := optimize(o, "seq/optimize-hi", req(hi))
	if rlo.EC == rhi.EC {
		t.Fatal("lo and hi plans are indistinguishable: the probe order is not pinned")
	}
	cached(o, "seq/cached-mid", req(mid))
	cached(o, "seq/cached-mid-narrow", req(mid), 0.01)
	cached(o, "seq/cached-mid-narrow-then-wide", req(mid), 0.01, 1, BandMargin)
	cached(o, "seq/cached-in1", req(in1))
	cached(o, "seq/cached-in1-wide", req(in1), 1, 2)
	cached(o, "seq/cached-bad", Request{})
	optimize(o, "seq/optimize-mid", req(mid))
	optimize(o, "seq/optimize-mid-again", req(mid))
	cached(o, "seq/cached-mid-own", req(mid))
	optimize(o, "seq/optimize-in1", req(in1))
	optimize(o, "seq/optimize-in2", req(in2))
	cached(o, "seq/cached-in2", req(in2))
	optimize(o, "seq/optimize-lsc-mid", Request{Query: blk, Cat: mid, Env: env, Alg: AlgLSCMode})
	optimize(o, "seq/optimize-bad", Request{})

	// Exact keys: no band, no probes.
	o = NewOptimizer(nil, Config{DriftBand: -1})
	optimize(o, "exact/optimize-lo", req(lo))
	cached(o, "exact/cached-mid", req(mid))
	cached(o, "exact/cached-mid-wide", req(mid), BandMargin, 1)
	optimize(o, "exact/optimize-mid", req(mid))
	record(o, "exact/batch", o.OptimizeBatch([]Request{req(lo), req(hi), req(mid), req(hi)})...)

	// No cache.
	o = NewOptimizer(nil, Config{CacheSize: -1})
	optimize(o, "nocache/optimize-lo", req(lo))
	optimize(o, "nocache/optimize-lo-again", req(lo))
	cached(o, "nocache/cached-lo", req(lo))

	// Prepared selection from a parametric plan set.
	laws, err := parametric.CoverageGrid(12, 90, []float64{0.2, 0.5, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	o = NewOptimizer(mid, Config{AnticipatedLaws: laws})
	prep, err := o.Prepare(pinSQL)
	if err != nil {
		t.Fatal(err)
	}
	sel, _ := prep.Select(mem)
	record(o, "prepared/select", sel)
	full, _ := prep.Optimize(env, AlgC)
	record(o, "prepared/optimize", full)

	// Batches: with and without a plan cache, on fresh handles (the step
	// names keep their "w1" so the golden's lines stay as recorded). Each
	// batch line must equal the line of a twin handle that runs the same
	// requests through Optimize in order. In the cold batch mid is served
	// lo's plan across the lower edge and written through under its own
	// key, so hi is then served that plan through mid's alias; two failing
	// requests fail alone. The warm batch must then hit every primary key;
	// the last handle aliases a prior batch's entry.
	batch := func(o, twin *Optimizer, step string, reqs []Request) {
		record(o, step, o.OptimizeBatch(reqs)...)
		seq := make([]Response, len(reqs))
		for i, r := range reqs {
			seq[i], _ = twin.Optimize(r)
		}
		if want := line(twin, step, seq...); lines[len(lines)-1] != want {
			t.Errorf("%s differs from sequential Optimize:\n batch %s\n   seq %s", step, lines[len(lines)-1], want)
		}
	}
	cold := []Request{
		req(lo), req(mid), req(hi), req(mid), req(in1), req(in2), req(lo),
		{}, {Query: blk, Cat: lo, Env: env, Alg: Algorithm(99)},
	}
	warm := []Request{req(mid), req(hi), req(lo), req(in2), req(mid)}
	for _, size := range []int{0, -1} {
		name := "batch/w1/cache"
		if size < 0 {
			name = "batch/w1/nocache"
		}
		o, twin := NewOptimizer(nil, Config{CacheSize: size}), NewOptimizer(nil, Config{CacheSize: size})
		batch(o, twin, name+"/cold", cold)
		batch(o, twin, name+"/warm", warm)
		optimize(o, name+"/optimize-mid", req(mid))
		twin.Optimize(req(mid))
		batch(o, twin, name+"/empty", nil)

		o, twin = NewOptimizer(nil, Config{CacheSize: size}), NewOptimizer(nil, Config{CacheSize: size})
		batch(o, twin, name+"/prior-lo", []Request{req(lo)})
		batch(o, twin, name+"/prior-alias-mid", []Request{req(mid), req(mid)})
		batch(o, twin, name+"/prior-own-mid", []Request{req(mid), req(hi)})
	}

	path := filepath.Join("testdata", "serve_path.golden")
	got := strings.Join(lines, "\n") + "\n"
	if *updateServePin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("golden has %d steps, run produced %d", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("step %d:\n got %s\nwant %s", i, lines[i], want[i])
		}
	}
}

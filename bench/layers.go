package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"lecopt"
	"lecopt/internal/buffer"
	"lecopt/internal/core"
	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/engine"
	"lecopt/internal/envsim"
	"lecopt/internal/expcost"
	"lecopt/internal/feedback"
	"lecopt/internal/optimizer"
	"lecopt/internal/plan"
	"lecopt/internal/plancache"
	"lecopt/internal/resilience"
	"lecopt/internal/sqlmini"
	"lecopt/internal/storage"
	"lecopt/internal/workload/fleet"
)

// Layer probes time calls into each module's exported functions from
// outside, on fixtures generated from the seed. They are the `_ns`,
// `_allocs` and ratio metrics of the per-layer list; the counts and shares
// that depend on the workload come from its traced pass instead.

// perCall returns the median ns per call of f. Calls are timed in batches
// sized to last about 50us, for about budget (at least 3 batches).
func perCall(budget time.Duration, f func()) float64 {
	t0 := time.Now()
	f()
	first := time.Since(t0)
	batch := 1
	if first < 50*time.Microsecond {
		batch = min(1<<16, int(50*time.Microsecond/max(first, 20*time.Nanosecond))+1)
	}
	var samples []float64
	deadline := time.Now().Add(budget)
	for len(samples) < 3 || (len(samples) < 4000 && time.Now().Before(deadline)) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		samples = append(samples, float64(time.Since(t0))/float64(batch))
	}
	return median(samples)
}

// perCallEach is perCall for a call that needs fresh input every time:
// prep(i) runs untimed before each timed(i), i cycling over 0..n-1.
func perCallEach(budget time.Duration, n int, prep, timed func(i int)) float64 {
	var samples []float64
	deadline := time.Now().Add(budget)
	for i := 0; len(samples) < 5 || (len(samples) < 4000 && time.Now().Before(deadline)); i = (i + 1) % n {
		prep(i)
		t0 := time.Now()
		timed(i)
		samples = append(samples, float64(time.Since(t0)))
	}
	return median(samples)
}

// allocsPerCall is the mean heap allocations of one call of f.
func allocsPerCall(runs int, f func()) float64 {
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(runs)
}

// probeFixture is the seed-derived material the probes run on.
type probeFixture struct {
	envs     []envsim.Env
	corpus   []lecopt.Request // 64 mixed 2-5 table requests, the hotpath_test corpus shape
	stmts    []stmt           // parallel to corpus
	byTables map[int][]stmt   // 4, 6, 8, 10 tables: one statement per shape
	tenants  []envsim.Env
	exec     *execClient
}

var probeTables = []int{4, 6, 8, 10}

func genProbeFixture(seed int64) (*probeFixture, error) {
	rng := rand.New(rand.NewSource(seed))
	fx := &probeFixture{byTables: make(map[int][]stmt)}
	var err error
	if fx.envs, err = standardEnvs(); err != nil {
		return nil, err
	}
	for i := 0; i < 64; i++ {
		st, err := genStmt(rng, 2+i%4, shapes[i%len(shapes)], -1, false)
		if err != nil {
			return nil, err
		}
		fx.stmts = append(fx.stmts, st)
		fx.corpus = append(fx.corpus, lecopt.Request{Query: st.blk, Cat: st.cat, Env: fx.envs[i%len(fx.envs)], Alg: lecopt.AlgC})
	}
	for _, t := range probeTables {
		for _, sh := range shapes {
			st, err := genStmt(rng, t, sh, -1, false)
			if err != nil {
				return nil, err
			}
			fx.byTables[t] = append(fx.byTables[t], st)
		}
	}
	if fx.tenants, err = execTenants(); err != nil {
		return nil, err
	}
	fx.exec, err = genExecClient(seed, 0, execQueries, fx.tenants)
	return fx, err
}

// cycle returns a function that calls f with 0, 1, ..., n-1, 0, ...
func cycle(n int, f func(i int)) func() {
	i := 0
	return func() {
		f(i)
		if i++; i == n {
			i = 0
		}
	}
}

// runProbes measures every probe-backed per-layer metric. budget is the
// time given to each probe.
func runProbes(seed int64, budget time.Duration) (map[string]float64, error) {
	fx, err := genProbeFixture(seed)
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64)
	var firstErr error
	check := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	probeText(budget, fx, m, check)
	probeCache(budget, fx, m, check)
	probeHandle(seed, budget, fx, m, check)
	probeOptimizer(budget, fx, m, check)
	probeFormulas(budget, fx, m, check)
	check(probeEngine(budget, fx, m))
	return m, firstErr
}

// probeText times what a request's text and statistics cost before any
// cache is consulted: sqlmini, query, catalog.
func probeText(budget time.Duration, fx *probeFixture, m map[string]float64, check func(error)) {
	n := len(fx.stmts)
	parse := cycle(n, func(i int) {
		_, err := sqlmini.Parse(fx.stmts[i].sql)
		check(err)
	})
	m["sqlmini.parse_ns"] = perCall(budget, parse)
	m["sqlmini.parse_allocs"] = allocsPerCall(n, parse)
	m["query.validate_ns"] = perCall(budget, cycle(n, func(i int) { check(fx.stmts[i].blk.Validate(fx.stmts[i].cat)) }))
	fresh := fx.stmts[0].blk
	m["query.canonical_ns"] = perCallEach(budget, n,
		func(i int) { fresh = fx.stmts[i].blk.Clone() },
		func(int) { fresh.Canonical() })

	m["catalog.fingerprint_ns"] = perCallEach(budget, n,
		func(i int) { fx.stmts[i].cat.InvalidateFingerprint() },
		func(i int) { fx.stmts[i].cat.Fingerprint() })
	scaled := fx.stmts[0].cat
	scale := func(i int) {
		var err error
		scaled, err = fx.stmts[i].cat.ScaleDistinct(1.5)
		check(err)
	}
	m["catalog.scale_distinct_ns"] = perCall(budget, cycle(n, scale))
	m["catalog.banded_fingerprint_ns"] = perCallEach(budget, n, scale,
		func(int) { scaled.BandedFingerprint(core.DefaultDriftBand) })
}

// probeCache times key building and the sharded LRU itself.
func probeCache(budget time.Duration, fx *probeFixture, m map[string]float64, check func(error)) {
	n := len(fx.corpus)
	scs := make([]core.Scenario, n)
	keys := make([][]byte, n)
	cache := plancache.New[core.PlanReport](4096)
	for i, r := range fx.corpus {
		var err error
		scs[i] = core.Scenario{Cat: r.Cat, Query: r.Query, Env: r.Env}
		keys[i], err = scs[i].AppendCacheKey(nil, lecopt.AlgC, core.DefaultDriftBand, 0)
		check(err)
		cache.Put(string(keys[i]), core.PlanReport{})
	}
	buf := make([]byte, 0, plancache.KeyLen)
	key := func(margin float64) func() {
		return cycle(n, func(i int) { buf, _ = scs[i].AppendCacheKey(buf[:0], lecopt.AlgC, core.DefaultDriftBand, margin) })
	}
	m["plancache.key_ns"] = perCall(budget, key(0))
	m["plancache.key_margin_ns"] = perCall(budget, key(core.BandMargin))
	m["plancache.get_hit_ns"] = perCall(budget, cycle(n, func(i int) { cache.GetBytes(keys[i]) }))
	// 4 096 keys nobody cached: misses for Get, and a full cycle of
	// evictions for Put into a 256-entry cache.
	absent := make([]string, 4096)
	for i := range absent {
		absent[i] = fmt.Sprintf("%064d", i)
	}
	misses := make([][]byte, n)
	for i := range misses {
		misses[i] = []byte(absent[i])
	}
	m["plancache.get_miss_ns"] = perCall(budget, cycle(n, func(i int) { cache.GetBytes(misses[i]) }))
	small := plancache.New[core.PlanReport](256)
	m["plancache.put_ns"] = perCall(budget, cycle(len(absent), func(i int) { small.Put(absent[i], core.PlanReport{}) }))
}

// probeHandle times the service handle's own paths, the resilience wrapper
// around it, and the feedback store.
func probeHandle(seed int64, budget time.Duration, fx *probeFixture, m map[string]float64, check func(error)) {
	n := len(fx.corpus)
	warm := lecopt.New(nil)
	cold := lecopt.New(nil, lecopt.WithoutPlanCache())
	for _, r := range fx.corpus {
		_, err := warm.Optimize(r)
		check(err)
	}
	optimize := func(o *lecopt.Optimizer) func() {
		return cycle(n, func(i int) {
			_, err := o.Optimize(fx.corpus[i])
			check(err)
		})
	}
	m["core.optimize_hit_ns"] = perCall(budget, optimize(warm))
	m["core.hit_allocs"] = allocsPerCall(4*n, optimize(warm))
	m["core.optimize_miss_ns"] = perCall(2*budget, optimize(cold))
	m["core.miss_allocs"] = allocsPerCall(n, optimize(cold))
	m["core.cached_probe_ns"] = perCall(budget, cycle(n, func(i int) { warm.Cached(fx.corpus[i]) }))
	dups := make([]lecopt.Request, 64)
	for i := range dups {
		dups[i] = fx.corpus[0]
	}
	m["core.batch_req_ns"] = perCall(budget, func() { warm.OptimizeBatch(dups) }) / float64(len(dups))
	check(probeResilience(budget, warm, fx, m))
	var fresh *lecopt.Optimizer
	m["core.prepare_ns"] = perCallEach(budget, n,
		func(i int) { fresh = lecopt.New(fx.stmts[i].cat) },
		func(i int) {
			_, err := fresh.Prepare(fx.stmts[i].sql)
			check(err)
		})

	sizes := make([]map[string]float64, n)
	qkeys := make([]string, n)
	for i, st := range fx.stmts {
		sizes[i] = map[string]float64{lecopt.SizeKey(st.blk.Tables...): 100}
		qkeys[i] = st.blk.Canonical() + "@" + st.cat.BandedFingerprint(core.DefaultDriftBand)
	}
	// One Observe on a query nobody requests: from here on every request
	// builds its feedback key and looks hints up.
	stranger, err := genStmt(rand.New(rand.NewSource(seed+1)), 3, shapes[0], 0, false)
	check(err)
	check(warm.Observe(lecopt.Feedback{Query: stranger.blk, Cat: stranger.cat, Sizes: map[string]float64{"t0": 10}}))
	m["core.hit_with_feedback_ns"] = perCall(budget, optimize(warm))
	observer := lecopt.New(nil)
	m["core.observe_ns"] = perCall(budget, cycle(n, func(i int) {
		check(observer.Observe(lecopt.Feedback{Query: fx.stmts[i].blk, Cat: fx.stmts[i].cat, Sizes: sizes[i]}))
	}))
	store := feedback.NewStore(0)
	m["feedback.observe_ns"] = perCall(budget, cycle(n, func(i int) { store.Observe(qkeys[i], sizes[i]) }))
	m["feedback.hints_ns"] = perCall(budget, cycle(n, func(i int) { store.Hints(qkeys[i]) }))
}

// probeResilience times Wrapper.Do on a cache hit and relates the fleet
// simulator's modeled latency prices (virtual microseconds) to the hit and
// miss times just measured.
func probeResilience(budget time.Duration, warm *lecopt.Optimizer, fx *probeFixture, m map[string]float64) error {
	spec, err := fleet.DefaultSpec()
	if err != nil {
		return err
	}
	w := resilience.New(warm, resilience.Config{Latency: spec.Latency})
	m["resilience.do_ns"] = perCall(budget, cycle(len(fx.corpus), func(i int) {
		w.Do(resilience.Request{Tenant: "t", Query: "q", Core: fx.corpus[i]})
	}))
	m["resilience.price_hit_over_measured"] = float64(spec.Latency.Hit) * 1000 / m["core.optimize_hit_ns"]
	m["resilience.price_cold_over_measured"] = float64(spec.Latency.ColdBase) * 1000 / m["core.optimize_miss_ns"]
	return nil
}

// probeOptimizer times the plan-space searches directly.
func probeOptimizer(budget time.Duration, fx *probeFixture, m map[string]float64, check func(error)) {
	bimodal := fx.envs[1].Mem
	sticky := fx.envs[4]
	opts := optimizer.Options{}
	four := fx.byTables[4]
	laws := make([]map[string]dist.Dist, len(four))
	for i, st := range four {
		var err error
		laws[i], err = selLaws(st, 2)
		check(err)
	}
	algs := []struct {
		name string
		run  func(st stmt, i int) error
	}{
		{"lsc", func(st stmt, _ int) error {
			_, err := optimizer.LSC(st.cat, st.blk, opts, bimodal.Mode())
			return err
		}},
		{"a", func(st stmt, _ int) error {
			_, err := optimizer.AlgorithmA(st.cat, st.blk, opts, bimodal)
			return err
		}},
		{"b", func(st stmt, _ int) error {
			_, err := optimizer.AlgorithmB(st.cat, st.blk, opts, bimodal, 3)
			return err
		}},
		{"c", func(st stmt, _ int) error {
			_, err := optimizer.AlgorithmC(st.cat, st.blk, opts, bimodal)
			return err
		}},
		{"c_dynamic", func(st stmt, _ int) error {
			_, err := optimizer.AlgorithmCDynamic(st.cat, st.blk, opts, sticky.Mem, sticky.Chain)
			return err
		}},
		{"d", func(st stmt, i int) error {
			_, err := optimizer.AlgorithmD(st.cat, st.blk, opts, bimodal, laws[i], nil)
			return err
		}},
	}
	for _, a := range algs {
		f := cycle(len(four), func(i int) { check(a.run(four[i], i)) })
		name := "optimizer.alg_" + a.name + "_ns"
		if a.name == "lsc" {
			name = "optimizer.lsc_ns"
		}
		m[name] = perCall(budget, f)
		if a.name != "c_dynamic" {
			m["optimizer.allocs_"+a.name] = allocsPerCall(2*len(four), f)
		}
	}
	// Scaling with table count, and the paper's overhead: the geometric
	// mean over statements of AlgC time over LSC time.
	var logRatio float64
	var ratios int
	for _, t := range probeTables {
		var cSum, lSum float64
		for _, st := range fx.byTables[t] {
			c := perCall(budget/4, func() {
				_, err := optimizer.AlgorithmC(st.cat, st.blk, opts, bimodal)
				check(err)
			})
			l := perCall(budget/4, func() {
				_, err := optimizer.LSC(st.cat, st.blk, opts, bimodal.Mode())
				check(err)
			})
			cSum += c
			lSum += l
			logRatio += math.Log(c / l)
			ratios++
		}
		k := float64(len(fx.byTables[t]))
		m[fmt.Sprintf("optimizer.alg_c_ns_t%d", t)] = cSum / k
		m[fmt.Sprintf("optimizer.lsc_ns_t%d", t)] = lSum / k
	}
	m["optimizer.ns_per_subset"] = m["optimizer.alg_c_ns_t8"] / (1<<8 - 1)
	m["optimizer.algc_over_lsc"] = math.Exp(logRatio / float64(ratios))
}

// probeFormulas times the cost formulas, law primitives and plan-tree
// utilities the searches are built from.
func probeFormulas(budget time.Duration, fx *probeFixture, m map[string]float64, check func(error)) {
	rng := rand.New(rand.NewSource(7))
	law := func(n int, lo, hi float64) dist.Dist {
		vals, weights := make([]float64, n), make([]float64, n)
		for i := range vals {
			vals[i] = lo + (hi-lo)*rng.Float64()
			weights[i] = rng.Float64() + 0.01
		}
		return dist.MustNew(vals, weights)
	}
	methods := []cost.JoinMethod{cost.SortMerge, cost.GraceHash, cost.PageNL, cost.BlockNL}
	sizes := []float64{64, 256, 4096, 65536}
	mems := []float64{6, 24, 96, 1024}
	grid := float64(len(methods) * len(sizes) * len(sizes) * len(mems))
	var sink float64
	m["cost.join_io_ns"] = perCall(budget, func() {
		for _, me := range methods {
			for _, a := range sizes {
				for _, b := range sizes {
					for _, mem := range mems {
						sink += cost.JoinIOModel(cost.ModelEngine, me, a, b, mem)
					}
				}
			}
		}
	}) / grid
	a, b, mem := law(32, 1, 1e6), law(32, 1, 1e6), law(32, 2, 5000)
	m["expcost.join_ec_linear_ns"] = perCall(budget, func() { expcost.JoinECLinear(cost.SortMerge, a, b, mem) })
	wide, fine := law(128, 1, 1e6), law(27, 2, 5000)
	m["dist.rebucket_ns"] = perCall(budget, func() {
		_, err := wide.Rebucket(27)
		check(err)
	})
	m["dist.expectf_ns"] = perCall(budget, func() { sink += fine.ExpectF(func(x float64) float64 { return x * 2 }) })

	st := fx.byTables[8][0]
	res, err := optimizer.AlgorithmC(st.cat, st.blk, optimizer.Options{}, fx.envs[1].Mem)
	check(err)
	if err != nil {
		return
	}
	laws := []dist.Dist{fx.envs[1].Mem}
	m["plan.clone_ns"] = perCall(budget, func() { res.Plan.Clone() })
	m["plan.signature_ns"] = perCall(budget, func() { res.Plan.Signature() })
	m["plan.cost_phases_ns"] = perCall(budget, func() {
		_, err := optimizer.ExpectedCostPhasesModel(cost.ModelPaper, res.Plan, laws)
		check(err)
	})

	pst := fx.stmts[0]
	anticipated, err := lecopt.CoverageGrid(700, 2000, []float64{0.1, 0.3, 0.5, 0.7, 0.9})
	check(err)
	prep, err := lecopt.New(pst.cat, lecopt.WithAnticipatedLaws(anticipated...)).Prepare(pst.sql)
	check(err)
	actual, err := lecopt.Bimodal(700, 2000, 0.4)
	check(err)
	if prep != nil {
		m["parametric.select_ns"] = perCall(budget, func() {
			_, err := prep.Select(actual)
			check(err)
		})
	}
	m["envsim.sample_ns"] = perCall(budget, func() {
		_, err := fx.envs[4].Sample(rng, 3)
		check(err)
	})
	_ = sink
}

// probeEngine times the page engine's operators, the buffer pool and the
// storage layer on the exec_loop relations at every tenant memory level.
func probeEngine(budget time.Duration, fx *probeFixture, m map[string]float64) error {
	// The widest query of the mix: its first two tables feed the operator
	// probes.
	q := fx.exec.queries[2]
	eng, store := q.eng, q.store
	perPage := func(run func(mem int) (*storage.Relation, buffer.Stats, error)) (float64, error) {
		var ns, pages float64
		for _, level := range execMemLevels {
			t0 := time.Now()
			out, st, err := run(int(level))
			ns += float64(time.Since(t0))
			if err != nil {
				return 0, err
			}
			store.Drop(out.Name)
			pages += float64(st.IO())
		}
		return ns / pages, nil
	}
	join := func(method cost.JoinMethod) func(int) (*storage.Relation, buffer.Stats, error) {
		return func(mem int) (*storage.Relation, buffer.Stats, error) {
			out, st, _, err := eng.JoinDetailed(engine.JoinSpec{Method: method, Outer: "c0t0", Inner: "c0t1", OuterCol: "k", InnerCol: "k"}, mem)
			return out, st, err
		}
	}
	pred := &plan.ScanPred{Column: "k", Hi: execKeyRange / 4, HasHi: true}
	probes := []struct {
		name string
		run  func(int) (*storage.Relation, buffer.Stats, error)
	}{
		{"engine.nl_ns_per_page", join(cost.PageNL)},
		{"engine.sm_ns_per_page", join(cost.SortMerge)},
		{"engine.gh_ns_per_page", join(cost.GraceHash)},
		{"engine.sort_ns_per_page", func(mem int) (*storage.Relation, buffer.Stats, error) { return eng.SortRelation("c0t1", "k", mem) }},
		{"engine.index_scan_ns_per_page", func(int) (*storage.Relation, buffer.Stats, error) { return eng.IndexScan("ix_c0t1_k", pred) }},
		{"engine.heap_scan_ns_per_page", func(int) (*storage.Relation, buffer.Stats, error) { return eng.HeapScanFiltered("c0t1", pred) }},
	}
	for _, p := range probes {
		var samples []float64
		for r := 0; r < 3 && (r == 0 || budget > 0); r++ {
			v, err := perPage(p.run)
			if err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
			samples = append(samples, v)
		}
		m[p.name] = median(samples)
	}

	// Whole plans: the mix's own requests, optimized then executed.
	var execNS []float64
	var ns, pages, extraOptNS, savedPages float64
	for i := 0; i < min(96, len(fx.exec.stream)); i++ {
		r := &fx.exec.stream[i]
		rq := fx.exec.queries[r.query]
		req := lecopt.Request{Query: rq.blk, Cat: rq.driftCats[r.drift], Env: fx.tenants[r.tenant], Alg: lecopt.AlgC, Opts: &execServingOpts}
		var io [2]int64
		var optNS [2]float64
		for a, alg := range []lecopt.Algorithm{lecopt.AlgLSCMode, lecopt.AlgC} {
			req.Alg = alg
			sc := core.Scenario{Cat: req.Cat, Query: req.Query, Env: req.Env, Opts: execServingOpts}
			var rep core.PlanReport
			var err error
			optNS[a] = perCall(0, func() { rep, err = sc.Optimize(alg) })
			if err != nil {
				return err
			}
			t0 := time.Now()
			res, err := rq.eng.ExecutePlan(rep.Plan, r.mem)
			d := float64(time.Since(t0))
			if err != nil {
				return err
			}
			rq.store.Drop(res.Output.Name)
			io[a] = res.Stats.IO()
			if alg == lecopt.AlgC {
				execNS = append(execNS, d)
				ns += d
				pages += float64(io[a])
			}
		}
		extraOptNS += optNS[1] - optNS[0]
		savedPages += float64(io[0] - io[1])
	}
	m["engine.execute_ns"] = median(execNS)
	m["engine.ns_per_page"] = ns / pages
	// The paper's trade: how many executions repay AlgC's extra optimize
	// time over LSC. 0 when the sample saves no pages.
	if saved := savedPages * m["engine.ns_per_page"]; saved > 0 && extraOptNS > 0 {
		m["optimizer.breakeven_execs"] = extraOptNS / saved
	} else {
		m["optimizer.breakeven_execs"] = 0
	}

	// buffer and storage.
	rel, err := store.Get("c0t1")
	if err != nil {
		return err
	}
	pool, err := buffer.NewPool(store, 8)
	if err != nil {
		return err
	}
	var perr error
	m["buffer.read_miss_ns"] = perCall(budget, cycle(rel.NumPages(), func(i int) {
		if _, err := pool.Read("c0t1", i); err != nil {
			perr = err
		}
	}))
	m["buffer.read_hit_ns"] = perCall(budget, func() {
		if _, err := pool.Read("c0t1", 0); err != nil {
			perr = err
		}
	})
	page, err := rel.Page(0)
	if err != nil {
		return err
	}
	tmp, err := store.NewTemp("probe", rel.Cols, rel.TuplesPerPage)
	if err != nil {
		return err
	}
	const appends = 4096
	t0 := time.Now()
	for i := 0; i < appends; i++ {
		if err := pool.AppendPage(tmp.Name, page); err != nil {
			perr = err
		}
	}
	m["buffer.append_ns"] = float64(time.Since(t0)) / appends
	store.Drop(tmp.Name)
	m["storage.page_ns"] = perCall(budget, cycle(rel.NumPages(), func(i int) {
		if _, err := rel.Page(i); err != nil {
			perr = err
		}
	}))
	rng := rand.New(rand.NewSource(11))
	gen := storage.GenSpec{Name: "g", Pages: 64, TuplesPerPage: execTuplesPerPage, KeyRange: execKeyRange}
	m["storage.generate_ns"] = perCall(budget, func() {
		if _, err := storage.Generate(gen, rng); err != nil {
			perr = err
		}
	})
	var fresh *storage.Store
	m["storage.build_index_ns"] = perCallEach(budget, 1,
		func(int) {
			fresh = storage.NewStore()
			r, err := storage.Generate(gen, rng)
			if err == nil {
				err = fresh.Add(r)
			}
			if err != nil {
				perr = err
			}
		},
		func(int) {
			if _, err := storage.BuildIndex(fresh, "ix", "g", "k", false, execIndexFanout); err != nil {
				perr = err
			}
		})
	return perr
}

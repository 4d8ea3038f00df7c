package fleet

import (
	"fmt"
	"math"
	"math/rand"

	"lecopt/internal/catalog"
	"lecopt/internal/core"
	"lecopt/internal/dist"
	"lecopt/internal/optimizer"
	"lecopt/internal/plan"
	"lecopt/internal/resilience"
	"lecopt/internal/workload/serving"
)

// RunConfig tunes one fleet run: the same request stream is replayed at
// every load level of the spec, so differences between levels are caused
// by pacing alone.
type RunConfig struct {
	// Requests is the stream length (requests per load level).
	Requests int
	// Seed drives all run-time randomness: drift walks, the tenant/query
	// stream, memory trajectories and latency jitters. Same fleet + same
	// config ⇒ byte-identical report.
	Seed int64
	// Workers bounds the LSC-baseline batch concurrency (0 = GOMAXPROCS).
	// The resilience-served path is sequential in virtual time; workers
	// never change the report.
	Workers int
	// CacheSize is each handle's plan-cache capacity (default 4096).
	CacheSize int
	// DriftBand is the plan-cache key band base (0 = service default).
	DriftBand float64
	// LSC and LEC select the baseline and the served policy; zero values
	// mean AlgLSCMode vs AlgC. LSCSet marks LSC as explicitly chosen even
	// when it equals the zero value AlgLSCMean.
	LSC, LEC core.Algorithm
	LSCSet   bool
	// ObserveEvery forwards every Nth request's executed sizes through
	// the wrapper's Observe call (0 means 16, negative disables).
	ObserveEvery int
}

func (cfg RunConfig) withDefaults() RunConfig {
	if cfg.CacheSize < 1 {
		cfg.CacheSize = 4096
	}
	if cfg.LSC == 0 && !cfg.LSCSet {
		cfg.LSC = core.AlgLSCMode
	}
	if cfg.LEC == 0 {
		cfg.LEC = core.AlgC
	}
	if cfg.ObserveEvery == 0 {
		cfg.ObserveEvery = 16
	}
	return cfg
}

// fleetRequest is one presampled request of the shared stream.
type fleetRequest struct {
	tenant     int
	query      int // fleet-global query ID
	factor     float64
	memSeq     []float64
	pjit, hjit float64
}

// optKey identifies one distinct baseline optimization problem.
type optKey struct {
	query     int
	archetype int
	factor    float64
}

// execResult is one memoized plan execution on a group engine.
type execResult struct {
	io    int64
	sizes map[string]float64
}

type driftCatKey struct {
	group  int
	factor float64
}

// Run generates a fleet from spec (generation and the request stream are
// both seeded by cfg.Seed) and simulates the spec's load levels over one
// shared request stream: tenants drawn by Zipf traffic share, queries
// uniform within the tenant's group, group statistics drifting along
// presampled walks. Every request is served by the resilience wrapper
// (LEC policy) against a batched LSC baseline, then both plans are
// executed on the group's engine under the request's memory trajectory
// and realized I/O is aggregated per level and per archetype.
func Run(spec Spec, cfg RunConfig) (*Report, error) {
	f, err := newFleet(spec, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	return f.run(cfg)
}

func (f *fleet) run(cfg RunConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Requests < 1 {
		return nil, fmt.Errorf("%w: %d requests", serving.ErrBadRun, cfg.Requests)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Per-group drift trajectories, one step per request index, shared
	// across load levels: the optimizer's statistics walk identically at
	// every level, so level-to-level deltas attribute to pacing.
	factors := make([][]float64, len(f.Groups))
	for g, grp := range f.Groups {
		if grp.driftChain != nil {
			seq, err := grp.driftChain.SampleSeq(rng, dist.Point(1), cfg.Requests)
			if err != nil {
				return nil, err
			}
			factors[g] = seq
			continue
		}
		flat := make([]float64, cfg.Requests)
		for i := range flat {
			flat[i] = 1
		}
		factors[g] = flat
	}

	// The shared request stream, with the distinct baseline problems it
	// touches in first-appearance order (deterministic batch layout).
	stream := make([]fleetRequest, cfg.Requests)
	var keys []optKey
	keyIdx := map[optKey]int{}
	for i := range stream {
		tn := int(f.traffic.Sample(rng))
		t := f.Tenants[tn]
		grp := f.Groups[t.Group]
		q := grp.Queries[rng.Intn(len(grp.Queries))]
		memSeq, err := f.archetypeEnv(t).Sample(rng, q.Phases)
		if err != nil {
			return nil, err
		}
		stream[i] = fleetRequest{
			tenant: tn, query: q.ID, factor: factors[t.Group][i], memSeq: memSeq,
			pjit: f.jitter(rng), hjit: f.jitter(rng),
		}
		k := optKey{q.ID, t.Archetype, stream[i].factor}
		if _, ok := keyIdx[k]; !ok {
			keyIdx[k] = len(keys)
			keys = append(keys, k)
		}
	}

	driftCats := map[driftCatKey]*catalog.Catalog{}
	basePlans, err := f.baseline(keys, driftCats, cfg)
	if err != nil {
		return nil, err
	}

	ecMemo := map[string]float64{}
	execCache := map[string]execResult{}
	rep := &Report{
		Tenants: len(f.Tenants), Groups: len(f.Groups), Queries: len(f.Queries),
		ChurnTenants: f.Spec.ChurnTenants, Seed: cfg.Seed,
		RequestsPerLevel: cfg.Requests,
		DriftBand:        core.ResolveDriftBand(cfg.DriftBand),
		LSCAlgorithm:     cfg.LSC.String(), LECAlgorithm: cfg.LEC.String(),
		RankAgreement: true,
	}
	for _, a := range f.Spec.Archetypes {
		rep.Archetypes = append(rep.Archetypes, a.Name)
	}
	for _, qps := range f.Spec.LoadLevels {
		lvl, err := f.runLevel(qps, stream, keyIdx, basePlans, driftCats, ecMemo, execCache, cfg)
		if err != nil {
			return nil, err
		}
		rep.Levels = append(rep.Levels, *lvl)
		rep.TotalLSCIO += lvl.LSCIO
		rep.TotalLECIO += lvl.LECIO
		rep.Errors += lvl.Errors
		rep.RankAgreement = rep.RankAgreement && lvl.RankAgreement
	}
	if rep.TotalLSCIO > 0 {
		rep.RealizedRatio = round6(float64(rep.TotalLECIO) / float64(rep.TotalLSCIO))
	}
	var pLSC, pLEC float64
	for _, lvl := range rep.Levels {
		pLSC += lvl.predLSC
		pLEC += lvl.predLEC
	}
	if pLSC > 0 {
		rep.PredictedRatio = round6(pLEC / pLSC)
	}
	return rep, nil
}

// jitter draws one lognormal latency multiplier.
func (f *fleet) jitter(rng *rand.Rand) float64 {
	if f.Spec.JitterSigma == 0 {
		return 1
	}
	return math.Exp(f.Spec.JitterSigma * rng.NormFloat64())
}

// catalogAt returns a group's catalog drifted by factor, memoized so all
// requests optimized at one (group, factor) share a fingerprint.
func (f *fleet) catalogAt(memo map[driftCatKey]*catalog.Catalog, group int, factor float64) (*catalog.Catalog, error) {
	k := driftCatKey{group, factor}
	if c, ok := memo[k]; ok {
		return c, nil
	}
	c, err := f.Groups[group].Cat.ScaleDistinct(factor)
	if err != nil {
		return nil, err
	}
	memo[k] = c
	return c, nil
}

// baseline optimizes the LSC plan of every distinct problem through one
// plain handle's batch pipeline — the deterministic dedup keeps the
// result independent of cfg.Workers.
func (f *fleet) baseline(keys []optKey, driftCats map[driftCatKey]*catalog.Catalog, cfg RunConfig) ([]*plan.Node, error) {
	opt := core.NewOptimizer(nil, core.Config{
		Workers: cfg.Workers, CacheSize: cfg.CacheSize,
		DriftBand: cfg.DriftBand, DisableFeedback: true,
	})
	opts := f.planOpts()
	reqs := make([]core.Request, len(keys))
	for i, k := range keys {
		q := f.Queries[k.query]
		cat, err := f.catalogAt(driftCats, q.Group, k.factor)
		if err != nil {
			return nil, err
		}
		reqs[i] = core.Request{
			Query: q.Block, Cat: cat,
			Env: f.Spec.Archetypes[k.archetype].Env,
			Alg: cfg.LSC, Opts: opts,
		}
	}
	results := opt.OptimizeBatch(reqs)
	plans := make([]*plan.Node, len(keys))
	for i, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("fleet: baseline %s: %w", cfg.LSC, res.Err)
		}
		plans[i] = res.Plan
	}
	return plans, nil
}

// predictedEC recomputes a plan's expected cost under the archetype's
// *true* environment (memoized): the common yardstick for the served and
// baseline plans even when the served plan was optimized under a
// degraded point environment or a neighboring drift band.
func (f *fleet) predictedEC(memo map[string]float64, qid, archetype int, p *plan.Node) (float64, error) {
	key := fmt.Sprintf("%d|%d|%s", qid, archetype, p.Signature())
	if v, ok := memo[key]; ok {
		return v, nil
	}
	env := f.Spec.Archetypes[archetype].Env
	laws, err := env.PhaseLaws(len(f.Queries[qid].Block.Tables) - 1)
	if err != nil {
		return 0, err
	}
	ec, err := optimizer.ExpectedCostModel(fleetCostModel, p, laws)
	if err != nil {
		return 0, err
	}
	memo[key] = ec
	return ec, nil
}

// execute runs a plan on its group's engine under the trajectory,
// memoized by (query, plan, trajectory) — plans and trajectories repeat
// heavily under Zipf traffic and few memory levels.
func (f *fleet) execute(cache map[string]execResult, q *fleetQuery, p *plan.Node, memSeq []float64) (execResult, error) {
	key := fmt.Sprintf("%d|%s|%v", q.ID, p.Signature(), memSeq)
	if out, ok := cache[key]; ok {
		return out, nil
	}
	grp := f.Groups[q.Group]
	res, err := grp.Eng.ExecutePlan(p, memSeq)
	if err != nil {
		return execResult{}, err
	}
	grp.Store.Drop(res.Output.Name)
	out := execResult{io: res.Stats.IO(), sizes: res.JoinSizes}
	cache[key] = out
	return out, nil
}

// runLevel replays the stream at one offered load: arrivals are
// deadline-anchored (request i is due at i/qps seconds), service is a
// single virtual queue over the wrapper's modeled latencies, and each
// request is stamped with its start time so budget refill and breaker
// cooldowns run in offered-load time.
func (f *fleet) runLevel(qps float64, stream []fleetRequest, keyIdx map[optKey]int, basePlans []*plan.Node,
	driftCats map[driftCatKey]*catalog.Catalog, ecMemo map[string]float64, execCache map[string]execResult,
	cfg RunConfig) (*LevelReport, error) {

	opt := core.NewOptimizer(nil, core.Config{
		CacheSize: cfg.CacheSize, DriftBand: cfg.DriftBand, DisableFeedback: true,
	})
	w := resilience.New(opt, resilience.Config{
		Budget: f.Spec.Budget, Breaker: f.Spec.Breaker, Hedge: f.Spec.Hedge,
		Latency: f.Spec.Latency,
	})
	planOpts := f.planOpts()

	lvl := &LevelReport{QPS: qps, Requests: len(stream)}
	var served []float64
	var busy resilience.Micros
	var waitSum float64
	arch := make([]archAgg, len(f.Spec.Archetypes))
	for i := range stream {
		r := &stream[i]
		t := f.Tenants[r.tenant]
		q := f.Queries[r.query]
		cat, err := f.catalogAt(driftCats, q.Group, r.factor)
		if err != nil {
			return nil, err
		}
		arrival := resilience.Micros(float64(i) * 1e6 / qps)
		start := arrival
		if busy > start {
			start = busy
		}
		wait := start - arrival
		out := w.Do(resilience.Request{
			Tenant: t.Name, Query: fmt.Sprintf("q%03d", q.ID), At: start,
			Core: core.Request{
				Query: q.Block, Cat: cat,
				Env: f.archetypeEnv(t), Alg: cfg.LEC, Opts: planOpts,
			},
			PrimaryJitter: r.pjit, HedgeJitter: r.hjit,
		})
		if out.Err != nil || out.Plan == nil {
			lvl.Errors++
			continue
		}
		busy = start + out.Served
		served = append(served, float64(out.Served))
		waitSum += float64(wait)
		if int64(wait) > lvl.MaxWaitMicros {
			lvl.MaxWaitMicros = int64(wait)
		}

		// Execute the served plan and the LSC baseline under the same
		// trajectory; fold realized I/O and recomputed predicted cost
		// into the level and archetype aggregates.
		lec, err := f.execute(execCache, q, out.Plan, r.memSeq)
		if err != nil {
			return nil, fmt.Errorf("fleet: query %d lec: %w", q.ID, err)
		}
		basePlan := basePlans[keyIdx[optKey{r.query, t.Archetype, r.factor}]]
		lsc, err := f.execute(execCache, q, basePlan, r.memSeq)
		if err != nil {
			return nil, fmt.Errorf("fleet: query %d lsc: %w", q.ID, err)
		}
		pLEC, err := f.predictedEC(ecMemo, r.query, t.Archetype, out.Plan)
		if err != nil {
			return nil, err
		}
		pLSC, err := f.predictedEC(ecMemo, r.query, t.Archetype, basePlan)
		if err != nil {
			return nil, err
		}
		lvl.LECIO += lec.io
		lvl.LSCIO += lsc.io
		lvl.predLEC += pLEC
		lvl.predLSC += pLSC
		a := &arch[t.Archetype]
		a.requests++
		a.lecIO += lec.io
		a.lscIO += lsc.io
		a.predLEC += pLEC
		a.predLSC += pLSC

		if cfg.ObserveEvery > 0 && i%cfg.ObserveEvery == 0 {
			// The handle runs with feedback disabled, so this exercises
			// the call and its counter, not the costing.
			if err := w.Observe(core.Feedback{
				Query: q.Block, Cat: cat, Sizes: lec.sizes,
			}); err != nil {
				lvl.Errors++
			}
		}
	}

	return lvl, lvl.finish(f, served, waitSum, busy, w.Stats(), opt.CacheStats(), arch)
}

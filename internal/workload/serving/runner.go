package serving

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"lecopt/internal/catalog"
	"lecopt/internal/core"
	"lecopt/internal/dist"
	"lecopt/internal/envsim"
	"lecopt/internal/optimizer"
	"lecopt/internal/plan"
	"lecopt/internal/plancache"
)

// Runner errors.
var (
	errBadRun = errors.New("workload: invalid run config")
)

// RunConfig tunes one engine-in-the-loop Monte-Carlo run over a Mix. The
// run optimizes through a handle with the service defaults: a 4096-entry
// plan cache.
type RunConfig struct {
	// Requests is the number of serving requests to simulate.
	Requests int
	// Seed drives all run-time randomness (request stream, memory
	// trajectories, drift walk). Same mix + same config ⇒ same report.
	Seed int64
	// DriftBand is the plan-cache key band base: 0 uses the service
	// default (geometric factor-2 bands over distinct counts, so the
	// default ±2x statistics drift keeps hitting the cache), any value
	// <= 1 (e.g. -1) restores exact-fingerprint keys, which split every
	// (query, tenant, drift factor) combination into its own entry.
	DriftBand float64
}

// request is one simulated serving request.
type request struct {
	query  int
	tenant int
	factor float64 // drift factor in force when the request was optimized
}

// optKey identifies one distinct optimization problem of a run: a query,
// optimized under a tenant's environment against factor-drifted statistics.
type optKey struct {
	query  int
	tenant int
	factor float64
}

// planPair is the two policies' plans for one optKey.
type planPair struct {
	lsc, lec *plan.Node
	lscEC    float64 // expected costs under the tenant's (true) environment
	lecEC    float64
}

// execOutcome is one memoized plan execution.
type execOutcome struct {
	io        int64
	phaseIO   []int64            // engine I/O booked per phase
	phaseMem  []float64          // effective memory each phase ran with
	condEC    []float64          // model's per-phase charge conditioned on phaseMem
	joinSizes map[string]float64 // observed intermediate pages by table set
	// Grace-hash degeneration markers forwarded from engine.ExecResult:
	// level-cap fallbacks to block nested-loop and the I/O they booked.
	fallbacks  int
	fallbackIO int64
}

// Run simulates cfg.Requests serving requests against the mix: each
// request samples a query by popularity, a tenant, and the current drift
// factor; both policies' plans are optimized through one OptimizeBatch call
// (Optimize in a loop, memoized in a plan cache); then both plans are *executed* on
// the mini engine under one shared sampled memory trajectory (common
// random numbers) and their realized physical I/O is accumulated into the
// report. Executions are memoized by (query, plan, trajectory) — plans and
// trajectories repeat heavily under Zipf popularity and few memory levels,
// and re-executing an identical deterministic run would only burn time.
func (m *Mix) Run(cfg RunConfig) (*Report, error) {
	if cfg.Requests < 1 {
		return nil, fmt.Errorf("%w: %d requests", errBadRun, cfg.Requests)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Drift trajectory: one factor per request, shared across tenants and
	// queries (correlated drift).
	factors := make([]float64, cfg.Requests)
	if m.driftChain != nil {
		seq, err := m.driftChain.SampleSeq(rng, dist.Point(1), cfg.Requests)
		if err != nil {
			return nil, err
		}
		factors = seq
	} else {
		for i := range factors {
			factors[i] = 1
		}
	}

	// Request stream plus the distinct optimization problems it touches,
	// in first-appearance order (deterministic job layout).
	requests := make([]request, cfg.Requests)
	var keys []optKey
	keyIdx := map[optKey]int{}
	for i := range requests {
		q := int(m.Popularity.Sample(rng))
		tn := rng.Intn(len(m.Tenants))
		requests[i] = request{query: q, tenant: tn, factor: factors[i]}
		k := optKey{query: q, tenant: tn, factor: factors[i]}
		if _, ok := keyIdx[k]; !ok {
			keyIdx[k] = len(keys)
			keys = append(keys, k)
		}
	}

	pairs, cacheStats, err := m.optimizeAll(keys, cfg)
	if err != nil {
		return nil, err
	}

	// Execute every request's two plans under one shared trajectory.
	agg := newAggregator(m, cfg)
	execCache := map[string]execOutcome{}
	var execHits, execMisses int64
	for _, req := range requests {
		q := m.Queries[req.query]
		memSeq, err := m.Tenants[req.tenant].Env.Sample(rng, q.Phases)
		if err != nil {
			return nil, err
		}
		pair := pairs[keyIdx[optKey{req.query, req.tenant, req.factor}]]
		outcomes := make([]execOutcome, 2)
		for pi, p := range []*plan.Node{pair.lsc, pair.lec} {
			key := fmt.Sprintf("%d|%s|%v", req.query, p.Signature(), memSeq)
			out, ok := execCache[key]
			if ok {
				execHits++
			} else {
				execMisses++
				out, err = executeOnce(q, p, memSeq)
				if err != nil {
					return nil, fmt.Errorf("workload: query %d plan %d: %w", req.query, pi, err)
				}
				execCache[key] = out
			}
			outcomes[pi] = out
		}
		agg.observe(req, pair, outcomes[0], outcomes[1])
	}
	rep := agg.report()
	rep.DriftBand = core.ResolveDriftBand(cfg.DriftBand)
	rep.PlanCacheHits = cacheStats.Hits
	rep.PlanCacheMisses = cacheStats.Misses
	rep.PlanCacheHitRate = cacheStats.HitRate()
	rep.PlanCacheEvictions = cacheStats.Evictions
	rep.ExecCacheHits = execHits
	rep.ExecCacheMisses = execMisses
	if execHits+execMisses > 0 {
		rep.ExecCacheHitRate = float64(execHits) / float64(execHits+execMisses)
	}
	rep.DistinctOptimizations = len(keys)
	return rep, nil
}

// optimizeAll runs both policies over every distinct optimization problem
// through a long-lived core.Optimizer service handle. The handle owns the
// plan cache with drift-banded keys (cfg.DriftBand), so the same (query,
// tenant) keeps hitting its cached plans while the statistics drift walks
// within a band — the fix for drift splitting the cache into a ~20% hit
// rate. Feedback is disabled here because the runner optimizes the whole
// stream upfront; MeasureModelAgreement exercises the feedback loop.
func (m *Mix) optimizeAll(keys []optKey, cfg RunConfig) ([]planPair, plancache.Stats, error) {
	opt := core.NewOptimizer(nil, core.Config{
		DriftBand:       cfg.DriftBand,
		DisableFeedback: true,
	})
	driftCats := map[driftCatKey]*catalog.Catalog{}
	// The plan space follows the mix's catalog: a heap-only mix declares
	// no index, so it gets no index plans.
	servingOpts := planOpts()
	reqs := make([]core.Request, 0, 2*len(keys))
	for _, k := range keys {
		q := m.Queries[k.query]
		cat, err := m.catalogAt(driftCats, k.query, k.factor)
		if err != nil {
			return nil, plancache.Stats{}, err
		}
		env := m.Tenants[k.tenant].Env
		reqs = append(reqs,
			core.Request{Query: q.Block, Cat: cat, Env: env, Alg: core.AlgLSCMode, Opts: servingOpts},
			core.Request{Query: q.Block, Cat: cat, Env: env, Alg: core.AlgC, Opts: servingOpts},
		)
	}
	results := opt.OptimizeBatch(reqs)
	pairs := make([]planPair, len(keys))
	for i := range keys {
		lsc, lec := results[2*i], results[2*i+1]
		if lsc.Err != nil {
			return nil, plancache.Stats{}, fmt.Errorf("workload: %s: %w", core.AlgLSCMode, lsc.Err)
		}
		if lec.Err != nil {
			return nil, plancache.Stats{}, fmt.Errorf("workload: %s: %w", core.AlgC, lec.Err)
		}
		pairs[i] = planPair{
			lsc: lsc.Plan, lec: lec.Plan,
			lscEC: lsc.EC, lecEC: lec.EC,
		}
	}
	return pairs, opt.CacheStats(), nil
}

type driftCatKey struct {
	query  int
	factor float64
}

// catalogAt returns query q's catalog drifted by factor, memoized so every
// request optimized at the same drift level shares one catalog (and thus
// one plan-cache fingerprint).
func (m *Mix) catalogAt(memo map[driftCatKey]*catalog.Catalog, q int, factor float64) (*catalog.Catalog, error) {
	k := driftCatKey{q, factor}
	if c, ok := memo[k]; ok {
		return c, nil
	}
	c, err := m.Queries[q].Cat.ScaleDistinct(factor)
	if err != nil {
		return nil, err
	}
	memo[k] = c
	return c, nil
}

// executeOnce runs one plan on the query's engine under the trajectory and
// returns its realized I/O. The output relation is dropped so repeated
// executions do not accumulate state. Alongside the engine's measured
// per-phase I/O it records the model's conditional per-phase charge at
// the memory the executor actually consumed (the evaluator under the
// serving cost model, over ExecResult.PhaseMem's point laws) — the
// analytic half of the phase ledger.
func executeOnce(q *ServingQuery, p *plan.Node, memSeq []float64) (execOutcome, error) {
	res, err := q.Eng.ExecutePlan(p, memSeq)
	if err != nil {
		return execOutcome{}, err
	}
	q.Store.Drop(res.Output.Name)
	condEC, err := optimizer.ExpectedCostPhasesModel(servingCostModel, p, dist.Points(res.PhaseMem))
	if err != nil {
		return execOutcome{}, err
	}
	return execOutcome{
		io: res.Stats.IO(), phaseIO: res.PhaseIO,
		phaseMem: res.PhaseMem, condEC: condEC,
		joinSizes:  res.JoinSizes,
		fallbacks:  res.GraceFallbacks,
		fallbackIO: res.GraceFallbackIO,
	}, nil
}

// percentile returns the q-quantile of an unsorted sample via envsim's
// shared nearest-rank Quantile.
func percentile(sample []float64, q float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return envsim.Quantile(s, q)
}

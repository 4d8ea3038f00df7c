package core

import (
	"lecopt/internal/plancache"
)

// BatchJob is one unit of work for OptimizeBatch: optimize Scenario with Alg.
type BatchJob struct {
	Scenario *Scenario
	Alg      Algorithm
}

// BatchResult is the outcome of one BatchJob. Exactly one of Report/Err is
// meaningful; CacheHit reports whether the report was served from the cache
// without running the optimizer.
type BatchResult struct {
	Report   PlanReport
	Err      error
	CacheHit bool
}

// BatchOptions tunes OptimizeBatch.
type BatchOptions struct {
	// Workers is the number of concurrent optimizations; 0 uses GOMAXPROCS.
	// The worker count never changes the results, only the wall-clock time.
	Workers int
	// Cache, when non-nil, memoizes PlanReports across jobs (and across
	// batches — share one cache for a serving workload). Keys cover the
	// catalog fingerprint, canonical query shape, environment-law digest,
	// plan-space options and algorithm, so a statistics or law change
	// misses cleanly; see Scenario.AppendCacheKey. Two identical jobs racing on
	// a cold key may both compute (last write wins) — wasteful but
	// harmless, since equal keys imply equal reports.
	Cache *plancache.Cache[PlanReport]
}

// AppendCacheKey appends to dst the plancache.KeyLen-byte plan-cache key of
// optimizing this scenario with alg — an opaque binary digest, built
// without allocating for hot paths that keep a reusable buffer and look
// plans up with Cache.GetBytes/ProbeBytes. With driftBand <= 1 the key is
// statistics-exact: scenarios whose keys are equal are optimized
// identically, so their PlanReports may be shared, and any change to the
// catalog statistics, query, environment laws or options yields a new key
// (stale entries age out of the LRU — there is no explicit invalidation).
// With driftBand > 1 distinct counts are bucketed into geometric bands of
// that base before hashing (catalog.BandedFingerprint), so statistics drift
// *within* a band maps to the same key and a drifting tenant keeps hitting
// the cached plan. margin offsets those bands by that many band units — the
// band-edge hysteresis probe key: statistics within |margin| of a band
// boundary key, under the matching-signed margin, exactly as their
// across-the-boundary neighbor does under margin 0.
func (s *Scenario) AppendCacheKey(dst []byte, alg Algorithm, driftBand, margin float64) ([]byte, error) {
	if err := s.check(); err != nil {
		return dst, err
	}
	// Hash only the inputs this algorithm reads: TopC steers Algorithm B
	// alone and the selectivity/size laws Algorithm D alone, so folding
	// them into every key would split otherwise-identical AlgC jobs into
	// spurious cache misses.
	topC := 0
	if alg == AlgB {
		topC = s.topC()
	}
	selLaws, sizeLaws := s.SelLaws, s.SizeLaws
	if alg != AlgD {
		selLaws, sizeLaws = nil, nil
	}
	return plancache.AppendKey(dst, s.Cat, s.Query, s.Env, selLaws, sizeLaws,
		s.Opts, topC, uint8(alg), driftBand, margin), nil
}

// OptimizeBatch optimizes every job, fanning across opts.Workers goroutines,
// and returns results in job order: results[i] answers jobs[i]. Failures are
// reported per job in BatchResult.Err — one bad scenario never aborts its
// batch. The results are byte-identical to calling jobs[i].Scenario.Optimize
// (jobs[i].Alg) sequentially: every optimization is deterministic and the
// pool only changes scheduling, never inputs.
//
// Scenarios and their catalogs are read, never written, so jobs may share
// them. Cached reports share plan trees; treat returned plans as immutable
// (Clone before mutating).
//
// Deprecated: OptimizeBatch is the legacy free-function surface. It now
// delegates to an ephemeral Optimizer handle with exact cache keys; new
// code should hold a long-lived handle (NewOptimizer / lecopt.New) and
// call its OptimizeBatch, which adds drift-banded caching and feedback.
func OptimizeBatch(jobs []BatchJob, opts BatchOptions) []BatchResult {
	o := NewOptimizer(nil, Config{
		Workers: opts.Workers,
		// Exact keys and no implicit cache: the legacy contract is
		// memoize-only-when-asked with statistics-exact signatures.
		CacheSize:       -1,
		Cache:           opts.Cache,
		DriftBand:       -1,
		DisableFeedback: true,
	})
	reqs := make([]Request, len(jobs))
	for i, j := range jobs {
		if j.Scenario == nil {
			continue // resolved to ErrNilScenario below
		}
		reqs[i] = Request{scenario: j.Scenario, Alg: j.Alg}
	}
	resps := o.OptimizeBatch(reqs)
	results := make([]BatchResult, len(jobs))
	for i, r := range resps {
		if jobs[i].Scenario == nil {
			results[i] = BatchResult{Err: ErrNilScenario}
			continue
		}
		results[i] = BatchResult{Report: r.PlanReport, Err: r.Err, CacheHit: r.CacheHit}
	}
	return results
}

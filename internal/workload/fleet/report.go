package fleet

import (
	"fmt"
	"math"
	"sort"

	"lecopt/internal/envsim"
	"lecopt/internal/plancache"
	"lecopt/internal/resilience"
	"lecopt/internal/workload/serving"
)

// Report is the full fleet-run artifact (BENCH_fleet.json). It carries
// no wall-clock timestamps and no worker counts: the same seed and spec
// must serialize byte-identically regardless of machine or parallelism.
type Report struct {
	Tenants          int      `json:"tenants"`
	Groups           int      `json:"groups"`
	Queries          int      `json:"queries"`
	ChurnTenants     int      `json:"churn_tenants"`
	Archetypes       []string `json:"archetypes"`
	Seed             int64    `json:"seed"`
	RequestsPerLevel int      `json:"requests_per_level"`
	DriftBand        float64  `json:"drift_band"`
	LSCAlgorithm     string   `json:"lsc_algorithm"`
	LECAlgorithm     string   `json:"lec_algorithm"`

	Levels []LevelReport `json:"levels"`

	// Fleet-wide totals across all load levels.
	TotalLSCIO     int64   `json:"total_lsc_io"`
	TotalLECIO     int64   `json:"total_lec_io"`
	RealizedRatio  float64 `json:"realized_ratio"`
	PredictedRatio float64 `json:"predicted_ratio"`
	RankAgreement  bool    `json:"rank_agreement"`
	Errors         int     `json:"errors"`
}

// LevelReport aggregates one offered-load level of the shared stream.
type LevelReport struct {
	QPS      float64 `json:"qps"`
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`

	// Realized I/O and predicted expected cost, served policy vs the LSC
	// baseline, summed over the stream.
	LSCIO          int64   `json:"lsc_io"`
	LECIO          int64   `json:"lec_io"`
	RealizedRatio  float64 `json:"realized_ratio"`
	PredictedRatio float64 `json:"predicted_ratio"`
	RankAgreement  bool    `json:"rank_agreement"`

	// Queueing over the wrapper's modeled service times.
	OptimizeLatency LatencySummary `json:"optimize_latency_micros"`
	MeanWaitMicros  float64        `json:"mean_wait_micros"`
	MaxWaitMicros   int64          `json:"max_wait_micros"`
	MakespanMicros  int64          `json:"makespan_micros"`

	// Resilience counters from the wrapper.
	Decisions      []resilience.DecisionCount `json:"decisions"`
	BudgetDenials  int                        `json:"budget_denials"`
	HedgesFired    int                        `json:"hedges_fired"`
	HedgeWins      int                        `json:"hedge_wins"`
	HedgeLosses    int                        `json:"hedge_losses"`
	HedgeCancels   int                        `json:"hedge_cancels"`
	BreakerTrips   int                        `json:"breaker_trips"`
	BreakerReopens int                        `json:"breaker_reopens"`
	OpenServed     int                        `json:"open_served"`
	DegradedServed int                        `json:"degraded_served"`

	// Plan-cache counters of the served handle. They count only the
	// lookups of Optimize, which the wrapper calls after its fast path's
	// Cached probe has missed; Cached probes are uncounted by design. So
	// the hit rate is the share of fast-path misses that Optimize still
	// served from cache, not the share of requests served from cache —
	// that is the `hit` decision's count over Requests.
	PlanCacheHits    uint64  `json:"plan_cache_hits"`
	PlanCacheMisses  uint64  `json:"plan_cache_misses"`
	PlanCacheHitRate float64 `json:"plan_cache_hit_rate"`
	// ObserveCalls is the feedback folds forwarded through the wrapper.
	ObserveCalls int `json:"observe_calls"`

	Archetypes []ArchetypeStats `json:"archetype_stats"`
	// ChurnTenantStats carries the engineered high-churn tenants'
	// per-tenant counters so breaker behavior is auditable per level.
	ChurnTenantStats []resilience.TenantStats `json:"churn_tenant_stats,omitempty"`

	predLSC, predLEC float64
}

// ArchetypeStats is one serving archetype's slice of a level.
type ArchetypeStats struct {
	Archetype      string  `json:"archetype"`
	Requests       int     `json:"requests"`
	LSCIO          int64   `json:"lsc_io"`
	LECIO          int64   `json:"lec_io"`
	RealizedRatio  float64 `json:"realized_ratio"`
	PredLSC        float64 `json:"pred_lsc"`
	PredLEC        float64 `json:"pred_lec"`
	PredictedRatio float64 `json:"predicted_ratio"`
	RankAgreement  bool    `json:"rank_agreement"`
}

// LatencySummary is the JSON form of a latency sample: nearest-rank
// quantiles (envsim.Quantile) plus power-of-two bucket counts. It is a
// pure function of the sample multiset, so it is byte-identical across
// runs of a deterministic workload.
type LatencySummary struct {
	Count   int      `json:"count"`
	Mean    float64  `json:"mean"`
	P50     float64  `json:"p50"`
	P90     float64  `json:"p90"`
	P99     float64  `json:"p99"`
	Max     float64  `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Bucket is one power-of-two latency bucket: Count values fell in
// (previous Le, Le].
type Bucket struct {
	Le    float64 `json:"le"`
	Count int     `json:"count"`
}

// summarize computes a sample's LatencySummary; an empty sample is the
// zero summary. Negative values are clamped to zero so a degenerate
// timing can never corrupt the bucket layout. The buckets are (-inf, 1],
// then (1, 2], (2, 4], … up to the one covering the maximum: edges
// independent of the sample keep rows comparable across artifacts.
func summarize(vals []float64) LatencySummary {
	if len(vals) == 0 {
		return LatencySummary{}
	}
	s := make([]float64, len(vals))
	for i, v := range vals {
		s[i] = math.Max(v, 0)
	}
	sort.Float64s(s)
	le, sum := 1.0, 0.0
	for s[0] > le {
		le *= 2
	}
	buckets := []Bucket{{Le: le}}
	for _, v := range s {
		sum += v
		for v > le {
			le *= 2
			buckets = append(buckets, Bucket{Le: le})
		}
		buckets[len(buckets)-1].Count++
	}
	return LatencySummary{
		Count: len(s), Mean: sum / float64(len(s)),
		P50: envsim.Quantile(s, 0.50), P90: envsim.Quantile(s, 0.90), P99: envsim.Quantile(s, 0.99),
		Max: s[len(s)-1], Buckets: buckets,
	}
}

// archAgg accumulates one archetype during a level run.
type archAgg struct {
	requests         int
	lscIO, lecIO     int64
	predLSC, predLEC float64
}

func round6(v float64) float64 {
	return math.Round(v*1e6) / 1e6
}

// finish folds the wrapper stats, cache stats and archetype aggregates
// into the level report. Every slice it emits is deterministically
// ordered: archetypes by spec order, churn tenants by (sorted) name. It
// fails when the per-tenant request counts do not sum to the wrapper's
// total, or the wrapper's total to the level's stream.
func (lvl *LevelReport) finish(f *fleet, served []float64, waitSum float64, busy resilience.Micros,
	stats resilience.Stats, cache plancache.Stats, arch []archAgg) error {

	if lvl.LSCIO > 0 {
		lvl.RealizedRatio = round6(float64(lvl.LECIO) / float64(lvl.LSCIO))
	}
	if lvl.predLSC > 0 {
		lvl.PredictedRatio = round6(lvl.predLEC / lvl.predLSC)
	}
	lvl.OptimizeLatency = summarize(served)
	if len(served) > 0 {
		lvl.MeanWaitMicros = round6(waitSum / float64(len(served)))
	}
	lvl.MakespanMicros = int64(busy)

	lvl.Decisions = stats.Decisions
	lvl.BudgetDenials = stats.BudgetDenials
	lvl.HedgesFired = stats.HedgesFired
	lvl.HedgeWins = stats.HedgeWins
	lvl.HedgeLosses = stats.HedgeLosses
	lvl.HedgeCancels = stats.HedgeCancels
	lvl.BreakerTrips = stats.BreakerTrips
	lvl.BreakerReopens = stats.BreakerReopens
	tenantRequests := 0
	for _, ts := range stats.Tenants {
		tenantRequests += ts.Requests
		lvl.OpenServed += ts.OpenServed
		lvl.DegradedServed += ts.Degraded
	}
	if tenantRequests != stats.Requests || stats.Requests != lvl.Requests {
		return fmt.Errorf("fleet: level %g qps: tenants' requests sum to %d, wrapper counted %d of %d",
			lvl.QPS, tenantRequests, stats.Requests, lvl.Requests)
	}

	lvl.PlanCacheHits = cache.Hits
	lvl.PlanCacheMisses = cache.Misses
	if total := cache.Hits + cache.Misses; total > 0 {
		lvl.PlanCacheHitRate = round6(float64(cache.Hits) / float64(total))
	}
	lvl.ObserveCalls = stats.ObserveCalls

	lvl.RankAgreement = true
	for i, a := range arch {
		if a.requests == 0 {
			continue
		}
		as := ArchetypeStats{
			Archetype: f.Spec.Archetypes[i].Name, Requests: a.requests,
			LSCIO: a.lscIO, LECIO: a.lecIO,
			PredLSC: round6(a.predLSC), PredLEC: round6(a.predLEC),
		}
		if a.lscIO > 0 {
			as.RealizedRatio = round6(float64(a.lecIO) / float64(a.lscIO))
		}
		if a.predLSC > 0 {
			as.PredictedRatio = round6(a.predLEC / a.predLSC)
		}
		as.RankAgreement = rankConsistent(a.predLEC-a.predLSC, a.predLSC+a.predLEC, a.lecIO-a.lscIO)
		lvl.RankAgreement = lvl.RankAgreement && as.RankAgreement
		lvl.Archetypes = append(lvl.Archetypes, as)
	}

	// stats.Tenants is already sorted by name; churn tenants are the
	// reserved low IDs, recognizable by name.
	for _, ts := range stats.Tenants {
		if f.churnTenantName(ts.Tenant) {
			lvl.ChurnTenantStats = append(lvl.ChurnTenantStats, ts)
		}
	}
	return nil
}

// rankConsistent is serving.RankAgrees with a 1% deadband on the
// predicted side: the resilience layer intentionally serves stale or
// degraded plans under overload, so a near-tie predicted ranking (|Δ|
// under 1% of the combined predicted cost) is not a decisive prediction
// and either realized sign is consistent with it. Decisive predictions
// still gate on realized sign exactly as in the serving workload.
func rankConsistent(predDelta, scale float64, ioDelta int64) bool {
	if math.Abs(predDelta) < 0.01*math.Abs(scale) {
		return true
	}
	return serving.RankAgrees(predDelta, scale, ioDelta)
}

// churnTenantName reports whether name is one of the engineered
// high-churn tenants (IDs 0..ChurnTenants-1).
func (f *fleet) churnTenantName(name string) bool {
	for i := 0; i < f.Spec.ChurnTenants && i < len(f.Tenants); i++ {
		if f.Tenants[i].Name == name {
			return true
		}
	}
	return false
}

package fleet

import (
	"math"

	"lecopt/internal/histo"
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
	OptimizeLatency histo.Summary `json:"optimize_latency_micros"`
	MeanWaitMicros  float64       `json:"mean_wait_micros"`
	MaxWaitMicros   int64         `json:"max_wait_micros"`
	MakespanMicros  int64         `json:"makespan_micros"`

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

	// Plan cache and timeline health.
	PlanCacheHits    uint64  `json:"plan_cache_hits"`
	PlanCacheMisses  uint64  `json:"plan_cache_misses"`
	PlanCacheHitRate float64 `json:"plan_cache_hit_rate"`
	TimelineEvents   int     `json:"timeline_events"`
	TimelineOptimize int     `json:"timeline_optimize"`
	TimelineObserve  int     `json:"timeline_observe"`

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
// ordered: archetypes by spec order, churn tenants by (sorted) name.
func (lvl *LevelReport) finish(f *fleet, hist histo.Histogram, waitSum float64, busy resilience.Micros,
	stats resilience.Stats, cache plancache.Stats, timelineLen int, arch []archAgg) {

	served := lvl.Requests - lvl.Errors
	if lvl.LSCIO > 0 {
		lvl.RealizedRatio = round6(float64(lvl.LECIO) / float64(lvl.LSCIO))
	}
	if lvl.predLSC > 0 {
		lvl.PredictedRatio = round6(lvl.predLEC / lvl.predLSC)
	}
	lvl.OptimizeLatency = hist.Summary()
	if served > 0 {
		lvl.MeanWaitMicros = round6(waitSum / float64(served))
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
	for _, ts := range stats.Tenants {
		lvl.OpenServed += ts.OpenServed
		lvl.DegradedServed += ts.Degraded
	}

	lvl.PlanCacheHits = cache.Hits
	lvl.PlanCacheMisses = cache.Misses
	if total := cache.Hits + cache.Misses; total > 0 {
		lvl.PlanCacheHitRate = round6(float64(cache.Hits) / float64(total))
	}
	lvl.TimelineEvents = timelineLen
	lvl.TimelineOptimize = stats.Requests
	lvl.TimelineObserve = stats.ObserveCalls

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

package serving

import (
	"sort"

	"lecopt/internal/core"
	"lecopt/internal/plan"
)

// Report is the outcome of one engine-in-the-loop run: realized (measured)
// physical I/O of the LSC and LEC policies over the same request stream
// and the same sampled memory trajectories. It is the BENCH_workload.json
// artifact and the empirical ground truth future optimizer changes are
// judged against.
type Report struct {
	Requests int   `json:"requests"`
	Queries  int   `json:"queries"`
	Tenants  int   `json:"tenants"`
	Seed     int64 `json:"seed"`

	LSCAlgorithm string `json:"lsc_algorithm"`
	LECAlgorithm string `json:"lec_algorithm"`

	// Aggregate realized physical I/O (pages read+written) of each
	// policy over the whole stream, and their ratio (LEC/LSC; < 1 means
	// the LEC policy realized less I/O).
	TotalLSCIO    int64   `json:"total_lsc_io"`
	TotalLECIO    int64   `json:"total_lec_io"`
	RealizedRatio float64 `json:"realized_ratio"`

	// Predicted ratio: request-weighted expected-cost ratio of the two
	// chosen plans under the tenants' true environments — what the
	// analytic layer promised before anything executed.
	PredictedRatio float64 `json:"predicted_ratio"`

	// Per-request outcome counts from the LEC policy's perspective
	// (strict realized-I/O comparisons under the shared trajectory).
	Wins   int `json:"lec_wins"`
	Ties   int `json:"ties"`
	Losses int `json:"lec_losses"`

	// PlanAgreementRate is the fraction of requests where both policies
	// chose physically identical plans (ties by construction).
	PlanAgreementRate float64 `json:"plan_agreement_rate"`

	// Per-request regret of each policy against the better of the two
	// realized outcomes, in pages of I/O (nearest-rank percentiles).
	LECRegretP50 float64 `json:"lec_regret_p50"`
	LECRegretP90 float64 `json:"lec_regret_p90"`
	LECRegretP99 float64 `json:"lec_regret_p99"`
	LSCRegretP50 float64 `json:"lsc_regret_p50"`
	LSCRegretP90 float64 `json:"lsc_regret_p90"`
	LSCRegretP99 float64 `json:"lsc_regret_p99"`

	// Cache effectiveness: the plan cache memoizes optimizations across
	// the stream's repeats (keyed drift-banded by DriftBand; 0 = exact
	// keys); the exec cache memoizes deterministic (query, plan,
	// trajectory) executions. Evictions expose whether the working set
	// actually fits — a hit rate can look healthy while entries cycle.
	DriftBand             float64 `json:"drift_band"`
	DistinctOptimizations int     `json:"distinct_optimizations"`
	PlanCacheHits         uint64  `json:"plan_cache_hits"`
	PlanCacheMisses       uint64  `json:"plan_cache_misses"`
	PlanCacheHitRate      float64 `json:"plan_cache_hit_rate"`
	PlanCacheEvictions    uint64  `json:"plan_cache_evictions"`
	ExecCacheHits         int64   `json:"exec_cache_hits"`
	ExecCacheMisses       int64   `json:"exec_cache_misses"`
	ExecCacheHitRate      float64 `json:"exec_cache_hit_rate"`

	PerQuery  []QueryStats  `json:"per_query"`
	PerTenant []TenantStats `json:"per_tenant"`

	// GraceFallbacks counts, over every executed request of both policies,
	// the grace-hash partitions that hit the engine's recursion level cap
	// and degenerated to block nested-loop; GraceFallbackIO is the I/O
	// those degenerate joins booked. Nonzero values mean some plans ran
	// outside the regime cost.GracePasses models — healthy mixes report 0.
	GraceFallbacks  int64 `json:"grace_fallbacks"`
	GraceFallbackIO int64 `json:"grace_fallback_io"`

	// RankAgreement reports whether, for every tenant, the analytic
	// ranking of the two policies (sum of chosen-plan expected costs)
	// agrees in sign with their realized-I/O ranking. A false value is a
	// rank inversion: the model systematically mispredicts which policy
	// wins somewhere, even if the global ratio looks healthy.
	RankAgreement bool `json:"rank_agreement"`

	// PhaseLedger is the per-(tenant, policy, phase, operator,
	// memory-band) cost-attribution audit: analytic charges conditioned
	// on the realized memory trajectory joined with the engine's booked
	// phase I/O. See ledger.go.
	PhaseLedger []LedgerCell `json:"phase_ledger"`

	// PlanDump lists every distinct physical plan either policy executed,
	// with how many requests ran it — the artifact-level evidence of
	// *which* operators (heap scans, index scans, join methods, sorts)
	// the run actually exercised. Sorted by query, then policy, then plan.
	PlanDump []PlanCount `json:"plan_dump"`
}

// PlanCount is one distinct executed plan of a run.
type PlanCount struct {
	Query    int    `json:"query"`
	Policy   string `json:"policy"` // "lsc" or "lec"
	Requests int    `json:"requests"`
	Plan     string `json:"plan"` // indented operator tree (plan.Node.String)
}

// QueryStats is one query's realized totals.
type QueryStats struct {
	ID       int     `json:"id"`
	Tables   int     `json:"tables"`
	Requests int     `json:"requests"`
	LSCIO    int64   `json:"lsc_io"`
	LECIO    int64   `json:"lec_io"`
	Ratio    float64 `json:"ratio"`
	Wins     int     `json:"lec_wins"`
	Ties     int     `json:"ties"`
	Losses   int     `json:"lec_losses"`
}

// TenantStats is one memory regime's realized totals.
type TenantStats struct {
	Name     string  `json:"name"`
	Requests int     `json:"requests"`
	LSCIO    int64   `json:"lsc_io"`
	LECIO    int64   `json:"lec_io"`
	Ratio    float64 `json:"ratio"`
	Wins     int     `json:"lec_wins"`
	Ties     int     `json:"ties"`
	Losses   int     `json:"lec_losses"`
	// PredictedRatio is the tenant's analytic LEC/LSC expected-cost
	// ratio over its requests — the model's promised ordering.
	PredictedRatio float64 `json:"predicted_ratio"`
	// RankAgreement is true unless the analytic ranking and the realized
	// ranking strictly disagree (the model says one policy wins while
	// the engine measures the other winning). Ties on either side agree
	// with everything.
	RankAgreement bool `json:"rank_agreement"`

	predLSC, predLEC float64
}

// RankAgrees compares an analytic cost difference against a realized I/O
// difference: only strictly opposite signs disagree. The analytic side
// uses a relative tolerance so float noise around equal plans reads as a
// tie.
func RankAgrees(predDelta, scale float64, ioDelta int64) bool {
	tol := 1e-9 * scale
	modelSign := 0
	switch {
	case predDelta < -tol:
		modelSign = -1
	case predDelta > tol:
		modelSign = 1
	}
	ioSign := 0
	switch {
	case ioDelta < 0:
		ioSign = -1
	case ioDelta > 0:
		ioSign = 1
	}
	return modelSign == 0 || ioSign == 0 || modelSign == ioSign
}

// aggregator folds per-request outcomes into a Report.
type aggregator struct {
	mix *Mix
	cfg RunConfig

	totalLSC, totalLEC   int64
	wins, ties, losses   int
	agree                int
	requests             int
	lecRegret, lscRegret []float64
	predLSC, predLEC     float64

	perQuery  []QueryStats
	perTenant []TenantStats
	plans     map[planKey]*PlanCount
	ledger    *ledger

	graceFallbacks  int64
	graceFallbackIO int64
}

// planKey identifies one distinct executed plan per query and policy.
type planKey struct {
	query  int
	policy string
	sig    string
}

func newAggregator(m *Mix, cfg RunConfig) *aggregator {
	a := &aggregator{mix: m, cfg: cfg, plans: make(map[planKey]*PlanCount), ledger: newLedger()}
	a.perQuery = make([]QueryStats, len(m.Queries))
	for i, q := range m.Queries {
		a.perQuery[i] = QueryStats{ID: q.ID, Tables: len(q.Block.Tables)}
	}
	a.perTenant = make([]TenantStats, len(m.Tenants))
	for i, tn := range m.Tenants {
		a.perTenant[i] = TenantStats{Name: tn.Name}
	}
	return a
}

func (a *aggregator) observe(req request, pair planPair, lsc, lec execOutcome) {
	a.requests++
	a.totalLSC += lsc.io
	a.totalLEC += lec.io
	a.predLSC += pair.lscEC
	a.predLEC += pair.lecEC
	a.graceFallbacks += int64(lsc.fallbacks) + int64(lec.fallbacks)
	a.graceFallbackIO += lsc.fallbackIO + lec.fallbackIO
	best := lsc.io
	if lec.io < best {
		best = lec.io
	}
	a.lecRegret = append(a.lecRegret, float64(lec.io-best))
	a.lscRegret = append(a.lscRegret, float64(lsc.io-best))
	win, tie := 0, 0
	switch {
	case lec.io < lsc.io:
		a.wins++
		win = 1
	case lec.io == lsc.io:
		a.ties++
		tie = 1
	default:
		a.losses++
	}
	if pair.lsc.Signature() == pair.lec.Signature() {
		a.agree++
	}
	a.countPlan(req.query, "lsc", pair.lsc)
	a.countPlan(req.query, "lec", pair.lec)
	q := &a.perQuery[req.query]
	q.Requests++
	q.LSCIO += lsc.io
	q.LECIO += lec.io
	q.Wins += win
	q.Ties += tie
	q.Losses += 1 - win - tie
	t := &a.perTenant[req.tenant]
	t.Requests++
	t.LSCIO += lsc.io
	t.LECIO += lec.io
	t.Wins += win
	t.Ties += tie
	t.Losses += 1 - win - tie
	t.predLSC += pair.lscEC
	t.predLEC += pair.lecEC
	a.ledger.observe(t.Name, "lsc", pair.lsc, lsc)
	a.ledger.observe(t.Name, "lec", pair.lec, lec)
}

// countPlan tallies one executed (query, policy, plan) combination.
func (a *aggregator) countPlan(query int, policy string, p *plan.Node) {
	k := planKey{query: query, policy: policy, sig: p.Signature()}
	if pc, ok := a.plans[k]; ok {
		pc.Requests++
		return
	}
	a.plans[k] = &PlanCount{Query: query, Policy: policy, Requests: 1, Plan: p.String()}
}

func ratioOf(lec, lsc int64) float64 {
	if lsc == 0 {
		return 1
	}
	return float64(lec) / float64(lsc)
}

func (a *aggregator) report() *Report {
	rep := &Report{
		Requests:          a.requests,
		Queries:           len(a.mix.Queries),
		Tenants:           len(a.mix.Tenants),
		Seed:              a.cfg.Seed,
		LSCAlgorithm:      core.AlgLSCMode.String(),
		LECAlgorithm:      core.AlgC.String(),
		TotalLSCIO:        a.totalLSC,
		TotalLECIO:        a.totalLEC,
		RealizedRatio:     ratioOf(a.totalLEC, a.totalLSC),
		Wins:              a.wins,
		Ties:              a.ties,
		Losses:            a.losses,
		PlanAgreementRate: float64(a.agree) / float64(a.requests),
		LECRegretP50:      percentile(a.lecRegret, 0.50),
		LECRegretP90:      percentile(a.lecRegret, 0.90),
		LECRegretP99:      percentile(a.lecRegret, 0.99),
		LSCRegretP50:      percentile(a.lscRegret, 0.50),
		LSCRegretP90:      percentile(a.lscRegret, 0.90),
		LSCRegretP99:      percentile(a.lscRegret, 0.99),
		GraceFallbacks:    a.graceFallbacks,
		GraceFallbackIO:   a.graceFallbackIO,
	}
	if a.predLSC > 0 {
		rep.PredictedRatio = a.predLEC / a.predLSC
	}
	for i := range a.perQuery {
		a.perQuery[i].Ratio = ratioOf(a.perQuery[i].LECIO, a.perQuery[i].LSCIO)
	}
	rep.RankAgreement = true
	for i := range a.perTenant {
		t := &a.perTenant[i]
		t.Ratio = ratioOf(t.LECIO, t.LSCIO)
		if t.predLSC > 0 {
			t.PredictedRatio = t.predLEC / t.predLSC
		}
		t.RankAgreement = RankAgrees(t.predLEC-t.predLSC, t.predLSC+t.predLEC, t.LECIO-t.LSCIO)
		if !t.RankAgreement {
			rep.RankAgreement = false
		}
	}
	rep.PerQuery = a.perQuery
	rep.PerTenant = a.perTenant
	rep.PhaseLedger = a.ledger.report()
	for _, pc := range a.plans {
		rep.PlanDump = append(rep.PlanDump, *pc)
	}
	sort.Slice(rep.PlanDump, func(i, j int) bool {
		a, b := rep.PlanDump[i], rep.PlanDump[j]
		if a.Query != b.Query {
			return a.Query < b.Query
		}
		if a.Policy != b.Policy {
			return a.Policy < b.Policy
		}
		return a.Plan < b.Plan
	})
	return rep
}

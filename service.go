package lecopt

import (
	"math/rand"

	"lecopt/internal/core"
	"lecopt/internal/dist"
	"lecopt/internal/envsim"
	"lecopt/internal/feedback"
	"lecopt/internal/parametric"
	"lecopt/internal/workload/serving"
)

// Service types: the stateful Optimizer handle and its request surface.
type (
	// Optimizer is a concurrency-safe, long-lived optimization service:
	// it owns the plan cache, the worker pool, the prepared statements
	// with their parametric plan sets, and the executed-size feedback
	// store. Build one with New; it is the primary public API.
	Optimizer = core.Optimizer
	// Request is one optimization request against an Optimizer.
	Request = core.Request
	// Response is the outcome of one Request (PlanReport embedded).
	Response = core.Response
	// Prepared is a prepared statement: parsed and canonicalized once,
	// with an [INSS92]-style parametric plan set over anticipated memory
	// laws.
	Prepared = core.Prepared
	// Feedback carries executed intermediate-result sizes back to an
	// Optimizer (engine ExecResult.JoinSizes keyed by SizeKey).
	Feedback = core.Feedback
	// ParametricEntry is one precomputed (anticipated law, plan) pair of
	// a Prepared statement's plan set.
	ParametricEntry = parametric.Entry
	// TournamentResult is a realized-cost comparison over common random
	// numbers.
	TournamentResult = envsim.TournamentResult
	// RunStats summarizes one plan's simulated realized costs.
	RunStats = envsim.RunStats
	// AgreementConfig tunes one engine-vs-model agreement sweep.
	AgreementConfig = serving.AgreementConfig
	// AgreementReport pins the measured/model bands of one sweep.
	AgreementReport = serving.AgreementReport
)

// Option configures an Optimizer handle built by New.
type Option func(*core.Config)

// WithWorkers bounds batch-optimization concurrency (0 = GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(c *core.Config) { c.Workers = n }
}

// WithPlanCache sets the handle's plan-cache capacity (the default is 4096
// entries).
func WithPlanCache(capacity int) Option {
	return func(c *core.Config) { c.CacheSize = capacity }
}

// WithoutPlanCache disables plan caching entirely.
func WithoutPlanCache() Option {
	return func(c *core.Config) { c.CacheSize = -1 }
}

// WithExactCacheKeys restores exact-fingerprint cache keys: any
// statistics change, however small, misses.
func WithExactCacheKeys() Option {
	return func(c *core.Config) { c.DriftBand = -1 }
}

// WithPlanSpace sets the default plan-space options applied to requests
// that carry none.
func WithPlanSpace(opts Options) Option {
	return func(c *core.Config) { c.PlanSpace = opts }
}

// WithTopC sets the default Algorithm B candidate-list depth.
func WithTopC(topC int) Option {
	return func(c *core.Config) { c.TopC = topC }
}

// WithoutFeedback disables the executed-size feedback store: Observe
// becomes a no-op and no observed sizes flow into costing.
func WithoutFeedback() Option {
	return func(c *core.Config) { c.DisableFeedback = true }
}

// WithAnticipatedLaws sets the [INSS92] family of anticipated memory
// laws each prepared statement precomputes LEC plans for. Without it Prepare skips plan-set precomputation and
// Prepared.Select falls back to full cached optimization.
func WithAnticipatedLaws(laws ...Dist) Option {
	return func(c *core.Config) { c.AnticipatedLaws = append([]dist.Dist(nil), laws...) }
}

// New builds a long-lived Optimizer service handle over cat. cat may be
// nil when every Request supplies its own catalog (multi-tenant servers);
// Prepare and SQL-carrying requests then need Request.Cat.
//
//	opt := lecopt.New(cat)
//	prep, _ := opt.Prepare("SELECT * FROM A, B WHERE A.k = B.k")
//	resp, _ := opt.Optimize(lecopt.Request{Prepared: prep, Env: env, Alg: lecopt.AlgC})
func New(cat *Catalog, opts ...Option) *Optimizer {
	cfg := core.Config{}
	for _, o := range opts {
		o(&cfg)
	}
	return core.NewOptimizer(cat, cfg)
}

// SizeKey canonically names a set of joined tables for Feedback.Sizes and
// Options.SizeHints — the engine's ExecResult.JoinSizes uses the same
// vocabulary, so observed sizes can be fed back verbatim.
func SizeKey(tables ...string) string { return feedback.SetKey(tables...) }

// MeasureModelAgreement generates the serving mix from spec (seeded by
// cfg.Seed, like RunWorkload) and sweeps the engine-vs-model agreement
// corpus over it, optionally closing the executed-size feedback loop; see
// the serving report's band semantics. Running it twice — feedback off,
// then on — quantifies how much observed intermediate sizes tighten the
// cost model's nested-loop band.
func MeasureModelAgreement(spec WorkloadSpec, cfg AgreementConfig) (*AgreementReport, error) {
	mix, err := serving.NewMix(spec, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	return mix.MeasureModelAgreement(cfg)
}

// CoverageGrid builds a family of anticipated bimodal memory laws spanning
// low-memory probabilities pLows at the given arms — the "good coverage"
// family the paper suggests for contended/uncontended environments; use it
// with WithAnticipatedLaws.
func CoverageGrid(lo, hi float64, pLows []float64) ([]Dist, error) {
	return parametric.CoverageGrid(lo, hi, pLows)
}

// Package lecopt is a least-expected-cost (LEC) query optimizer library —
// a from-scratch Go reproduction of "Least Expected Cost Query
// Optimization: An Exercise in Utility" (Chu, Halpern, Seshadri, PODS
// 1999).
//
// Classical System R optimizers cost plans at a single point estimate of
// each run-time parameter (the least-specific-cost, LSC, plan). This
// library instead models parameters — available buffer memory, relation
// sizes, predicate selectivities — as probability distributions and finds
// the plan of least expected cost. It implements all four of the paper's
// algorithms (A, B, C, D), the dynamic-memory Markov extension, the
// linear-time expected-cost formulas of Section 3.6, the bucketing
// strategies of Section 3.7, plus every substrate they need: a statistics
// catalog, a mini SQL parser, the System R baseline, an analytic cost
// model, and a page-level execution engine with a buffer pool that
// validates the model's shape.
//
// # The Optimizer service handle
//
// The primary API is a long-lived, concurrency-safe service handle built
// with New. The handle owns everything a serving fleet needs to keep
// *across* requests: the plan cache, the worker pool, prepared statements
// with their [INSS92]-style parametric plan sets, and the executed-size
// feedback store. Quick start (the paper's Example 1.1):
//
//	opt := lecopt.New(cat)
//	prep, _ := opt.Prepare("SELECT * FROM A, B WHERE A.k = B.k ORDER BY A.k")
//	mem, _ := lecopt.Bimodal(700, 2000, 0.2) // pages: 700 w.p. 0.2, 2000 w.p. 0.8
//	env := lecopt.Env{Mem: mem}
//	classical, _ := prep.Optimize(env, lecopt.AlgLSCMode) // picks sort-merge
//	lec, _ := prep.Optimize(env, lecopt.AlgC)             // picks grace-hash + sort
//	fmt.Println(lec.EC < classical.EC)                    // true
//
// One-shot requests skip Prepare: Optimize takes SQL, a pre-built Block,
// or a Prepared statement, plus a per-request catalog override for
// multi-tenant or drifted statistics:
//
//	resp, _ := opt.Optimize(lecopt.Request{SQL: "...", Env: env, Alg: lecopt.AlgC})
//
// # Batch & concurrent use
//
// Heavy workloads go through Optimizer.OptimizeBatch, which fans the
// handle's worker pool across many requests and serves repeats from the
// plan cache:
//
//	opt := lecopt.New(nil, lecopt.WithWorkers(8))
//	resps := opt.OptimizeBatch(reqs) // resps[i] answers reqs[i]
//	for _, r := range resps {
//		if r.Err == nil {
//			fmt.Println(r.Plan, r.EC, r.CacheHit)
//		}
//	}
//	fmt.Println(opt.CacheStats().HitRate())
//
// Results are byte-identical to sequential Optimize calls and independent
// of the worker count. Requests sharing a cache key are deduplicated
// deterministically (first request in order computes, the rest hit).
// Cached reports share plan trees; treat returned plans as immutable
// (Clone before mutating). The worker pool is the only parallelism: each
// optimization, Algorithm A's and B's per-memory-bucket LSC runs included,
// runs serially on one worker.
//
// # Drift-banded plan caching
//
// Cache keys cover the catalog fingerprint, canonical query shape,
// environment-law digest, plan-space options, feedback hints and
// algorithm. By default the catalog fingerprint is *drift-banded*:
// distinct counts are bucketed into geometric factor-2 bands, so a tenant
// whose statistics drift within a band keeps hitting its cached plans
// (exact-fingerprint keys split every drift step into its own entry; opt
// in to them with WithExactCacheKeys). Cross-band drift — a real
// statistics change — misses cleanly, and stale entries age out of the
// LRU; there is no explicit invalidation to call.
//
// # Executed-size feedback
//
// The cost model's weakest input is the estimated intermediate-result
// size (nested-loop joins square the error). The engine reports every
// join's materialized output pages (ExecResult.JoinSizes); feed them back
// with Observe and subsequent optimizations of the same query cost with
// the observed sizes:
//
//	res, _ := eng.ExecutePlan(resp.Plan, memSeq)
//	opt.Observe(lecopt.Feedback{Prepared: prep, Sizes: res.JoinSizes})
//
// # Empirical validation
//
// Analytic expected-cost comparisons are only as good as the cost model,
// so the library ships an engine-in-the-loop workload simulator: it
// generates a serving mix (Zipf query popularity, multi-tenant Markov
// memory regimes, correlated statistics drift), optimizes every request
// with both the classical LSC policy and an LEC algorithm, then actually
// executes both plans on the page-level engine under shared sampled memory
// trajectories and compares *measured* physical I/O:
//
//	spec, _ := lecopt.DefaultWorkloadSpec()
//	rep, _ := lecopt.RunWorkload(spec, lecopt.WorkloadRun{Requests: 1000, Seed: 1})
//	fmt.Println(rep.RealizedRatio <= 1) // LEC realized no more I/O than LSC
//
// The same report is produced by `lecbench -workload` as the
// BENCH_workload.json artifact (including the model-agreement bands with
// feedback off and on); see the README's "Empirical validation" section
// for how to read it.
//
// See the examples/ directory for runnable programs, DESIGN.md for the
// architecture and plan-space conventions, and EXPERIMENTS.md for the
// E1-E20 reproduction methodology.
package lecopt

import (
	"math/rand"

	"lecopt/internal/catalog"
	"lecopt/internal/core"
	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/envsim"
	"lecopt/internal/optimizer"
	"lecopt/internal/plan"
	"lecopt/internal/plancache"
	"lecopt/internal/query"
	"lecopt/internal/sqlmini"
	"lecopt/internal/workload/serving"
)

// Re-exported core types. The aliases give external importers a stable
// public surface over the internal packages.
type (
	// Scenario bundles a catalog, a query and an uncertainty model.
	Scenario = core.Scenario
	// PlanReport is the outcome of one optimization.
	PlanReport = core.PlanReport
	// Algorithm selects an optimization strategy.
	Algorithm = core.Algorithm
	// Env is an execution environment: a memory law plus an optional
	// Markov chain for dynamic (per-phase) memory.
	Env = envsim.Env
	// Dist is a discrete probability distribution over parameter values.
	Dist = dist.Dist
	// Chain is a Markov chain over memory levels (Section 3.5).
	Chain = dist.Chain
	// Catalog stores table, column and index statistics.
	Catalog = catalog.Catalog
	// Table describes one stored relation.
	Table = catalog.Table
	// Column describes one attribute with statistics.
	Column = catalog.Column
	// Index describes a secondary index.
	Index = catalog.Index
	// Block is an SPJ query block.
	Block = query.Block
	// Plan is a physical plan tree node.
	Plan = plan.Node
	// Options tunes the optimizer's plan space.
	Options = optimizer.Options
	// CacheStats snapshots a handle's plan-cache hit/miss counters.
	CacheStats = plancache.Stats
	// WorkloadSpec configures serving-mix generation for RunWorkload.
	WorkloadSpec = serving.MixSpec
	// WorkloadTenant is one memory regime of a serving mix.
	WorkloadTenant = serving.Tenant
	// WorkloadRun tunes one engine-in-the-loop Monte-Carlo run.
	WorkloadRun = serving.RunConfig
	// WorkloadReport compares the realized I/O of the LSC and LEC
	// policies over one simulated request stream.
	WorkloadReport = serving.Report
)

// Errors a caller can match with errors.Is: invalid statistics (NewTable),
// a Request or Feedback that names no query, and no plan of finite cost.
var (
	ErrBadStats   = catalog.ErrBadStats
	ErrBadRequest = core.ErrBadRequest
	ErrNoPlan     = optimizer.ErrNoPlan
)

// Algorithms.
const (
	AlgLSCMean = core.AlgLSCMean // classical plan at the mean memory
	AlgLSCMode = core.AlgLSCMode // classical plan at the modal memory
	AlgA       = core.AlgA       // §3.2 black-box, one LSC run per bucket
	AlgB       = core.AlgB       // §3.3 top-c candidates per bucket
	AlgC       = core.AlgC       // §3.4/§3.5 LEC dynamic program
	AlgD       = core.AlgD       // §3.6 multi-parameter LEC
)

// Algorithms lists every algorithm in presentation order.
func Algorithms() []Algorithm { return append([]Algorithm(nil), core.Algorithms...) }

// NewCatalog returns an empty statistics catalog.
func NewCatalog() *Catalog { return catalog.New() }

// NewTable builds a table with validated statistics.
func NewTable(name string, pages, rows float64, cols ...Column) (*Table, error) {
	return catalog.NewTable(name, pages, rows, cols...)
}

// ParseSQL parses a small SQL subset ("SELECT * FROM a, b WHERE a.k = b.k
// AND a.v < 10 ORDER BY a.k") into a query block and validates it against
// the catalog.
func ParseSQL(sql string, cat *Catalog) (*Block, error) {
	return sqlmini.ParseAndValidate(sql, cat)
}

// NewDist builds a distribution from values and (unnormalized) weights.
func NewDist(vals, weights []float64) (Dist, error) { return dist.New(vals, weights) }

// PointDist is the degenerate one-value law; it makes every LEC algorithm
// coincide with the classical LSC optimizer.
func PointDist(v float64) Dist { return dist.Point(v) }

// Bimodal returns a two-point law: lo with probability pLo, hi otherwise.
func Bimodal(lo, hi, pLo float64) (Dist, error) { return dist.Bimodal(lo, hi, pLo) }

// StickyChain returns a Markov chain that stays put with probability stay
// and otherwise drifts to a neighbouring level.
func StickyChain(levels []float64, stay float64) (*Chain, error) {
	return dist.Sticky(levels, stay)
}

// ExpectedCost evaluates a plan under per-phase memory laws and the
// paper's cost model: pass one law for a static environment, or one per
// phase (at least p.Phases()); any other count is an error. The cost at a
// fixed memory value m is ExpectedCost(p, []Dist{PointDist(m)}).
func ExpectedCost(p *Plan, laws []Dist) (float64, error) {
	return optimizer.ExpectedCostModel(cost.ModelPaper, p, laws)
}

// EdgeKey canonically names a join edge for Scenario.SelLaws.
func EdgeKey(j query.Join) string { return optimizer.EdgeKey(j) }

// DefaultWorkloadSpec returns the canonical Zipf+Markov serving mix: 12
// distinct queries with skew 1.1, four tenant memory regimes (batch,
// interactive, sticky-Markov, volatile-Markov) and a ±2x sticky drift of
// the optimizer's statistics.
func DefaultWorkloadSpec() (WorkloadSpec, error) { return serving.DefaultMixSpec() }

// RunWorkload generates a serving mix from spec (mix generation and the
// run stream are both seeded by cfg.Seed, so a report is reproducible from
// its spec+config) and Monte-Carlo-runs it engine-in-the-loop: every
// request is optimized with both policies through the batch pipeline, both
// plans are executed on the page-level engine under one shared sampled
// memory trajectory, and the realized physical I/O is aggregated into the
// report; see the package section "Empirical validation".
func RunWorkload(spec WorkloadSpec, cfg WorkloadRun) (*WorkloadReport, error) {
	mix, err := serving.NewMix(spec, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	return mix.Run(cfg)
}

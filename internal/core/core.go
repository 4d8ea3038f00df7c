// Package core is the high-level façade of the LEC optimizer library: it
// bundles a catalog, a query and an execution environment into a Scenario
// and exposes one-call entry points for every optimization algorithm of
// Chu, Halpern and Seshadri (PODS 1999), plus uniform expected-cost
// evaluation and Monte-Carlo simulation of the chosen plans.
//
// Typical use:
//
//	sc := &core.Scenario{Cat: cat, Query: blk, Env: envsim.Env{Mem: law}}
//	lsc, _ := sc.Optimize(core.AlgLSCMode)   // classical plan
//	lec, _ := sc.Optimize(core.AlgC)         // least-expected-cost plan
//	fmt.Println(lec.Plan, lec.EC, lsc.EC)
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"lecopt/internal/catalog"
	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/envsim"
	"lecopt/internal/optimizer"
	"lecopt/internal/plan"
	"lecopt/internal/plancache"
	"lecopt/internal/query"
)

// Errors.
var (
	errNilScenario = errors.New("core: scenario is missing catalog or query")
	ErrUnknownAlg  = errors.New("core: unknown algorithm")
)

// Algorithm selects an optimization strategy.
type Algorithm uint8

// Algorithms. The two LSC variants are the classical baselines the paper
// compares against: optimize at the mean or at the modal memory value.
const (
	AlgLSCMean Algorithm = iota
	AlgLSCMode
	AlgA
	AlgB
	AlgC
	AlgD
)

// Algorithms lists every algorithm in presentation order.
var Algorithms = []Algorithm{AlgLSCMean, AlgLSCMode, AlgA, AlgB, AlgC, AlgD}

func (a Algorithm) String() string {
	switch a {
	case AlgLSCMean:
		return "lsc-mean"
	case AlgLSCMode:
		return "lsc-mode"
	case AlgA:
		return "algorithm-a"
	case AlgB:
		return "algorithm-b"
	case AlgC:
		return "algorithm-c"
	case AlgD:
		return "algorithm-d"
	default:
		return fmt.Sprintf("Algorithm(%d)", uint8(a))
	}
}

// Scenario is one optimization problem: what to optimize (Query over Cat)
// and under which uncertainty model (Env plus optional selectivity and
// size laws for Algorithm D).
type Scenario struct {
	Cat   *catalog.Catalog
	Query *query.Block
	Env   envsim.Env
	// SelLaws maps optimizer.EdgeKey(join) to a selectivity law.
	SelLaws map[string]dist.Dist
	// SizeLaws maps table names to filtered-size laws.
	SizeLaws map[string]dist.Dist
	// Opts tunes the plan space (methods, indexes, size buckets).
	Opts optimizer.Options
	// TopC is Algorithm B's candidate-list depth (default 3).
	TopC int
}

// PlanReport is the outcome of one optimization.
type PlanReport struct {
	Algorithm Algorithm
	Plan      *plan.Node
	// Score is the value the algorithm minimized (point cost for LSC,
	// expected cost for the LEC family).
	Score float64
	// EC is the plan's expected cost under the scenario's environment —
	// the common yardstick across algorithms.
	EC float64
	// PhaseEC breaks Score down by execution phase (one entry per plan
	// phase, summing to Score for the memory-only algorithms); see
	// optimizer.Result.PhaseEC.
	PhaseEC []float64
	// Candidates and Probes forward optimizer bookkeeping.
	Candidates int
	Probes     int
}

func (s *Scenario) check() error {
	if s == nil || s.Cat == nil || s.Query == nil {
		return errNilScenario
	}
	return s.Env.Validate()
}

func (s *Scenario) topC() int {
	if s.TopC < 1 {
		return 3
	}
	return s.TopC
}

// phaseLaws returns the environment's per-phase memory laws for the
// scenario's query.
func (s *Scenario) phaseLaws() ([]dist.Dist, error) {
	n := len(s.Query.Tables)
	phases := 1
	if n >= 2 {
		phases = n - 1
	}
	return s.Env.PhaseLaws(phases)
}

// Optimize runs one algorithm and evaluates its plan under the scenario
// environment.
func (s *Scenario) Optimize(alg Algorithm) (PlanReport, error) {
	if err := s.check(); err != nil {
		return PlanReport{}, err
	}
	var (
		res optimizer.Result
		err error
	)
	switch alg {
	case AlgLSCMean:
		res, err = optimizer.LSC(s.Cat, s.Query, s.Opts, s.Env.Mem.Mean())
	case AlgLSCMode:
		res, err = optimizer.LSC(s.Cat, s.Query, s.Opts, s.Env.Mem.Mode())
	case AlgA:
		res, err = optimizer.AlgorithmA(s.Cat, s.Query, s.Opts, s.Env.Mem)
	case AlgB:
		res, err = optimizer.AlgorithmB(s.Cat, s.Query, s.Opts, s.Env.Mem, s.topC())
	case AlgC:
		if s.Env.Chain != nil {
			res, err = optimizer.AlgorithmCDynamic(s.Cat, s.Query, s.Opts, s.Env.Mem, s.Env.Chain)
		} else {
			res, err = optimizer.AlgorithmC(s.Cat, s.Query, s.Opts, s.Env.Mem)
		}
	case AlgD:
		res, err = optimizer.AlgorithmD(s.Cat, s.Query, s.Opts, s.Env.Mem, s.SelLaws, s.SizeLaws)
	default:
		return PlanReport{}, fmt.Errorf("%w: %d", ErrUnknownAlg, alg)
	}
	if err != nil {
		return PlanReport{}, err
	}
	// Where the algorithm priced its plan under the environment's own phase
	// laws — C always, A and B when memory is static, since they price
	// under Env.Mem — PhaseEC is already that walk, and EC is its sum in
	// phase order, bit for bit. LSC (a point law), D (point sizes) and A
	// and B under a chain price the plan again.
	ec := 0.0
	for _, p := range res.PhaseEC {
		ec += p
	}
	if alg != AlgC && (s.Env.Chain != nil || alg != AlgA && alg != AlgB) {
		laws, err := s.phaseLaws()
		if err != nil {
			return PlanReport{}, err
		}
		if ec, err = optimizer.ExpectedCostModel(s.Opts.CostModel, res.Plan, laws); err != nil {
			return PlanReport{}, err
		}
	}
	// A plan whose expected cost overflows is no plan: every algorithm
	// refuses it alike, whether its own score overflowed (the LEC family)
	// or only the re-pricing did (LSC picks at one memory value).
	if math.IsInf(ec, 0) || math.IsNaN(ec) {
		return PlanReport{}, fmt.Errorf("%w: %s: non-finite expected cost", optimizer.ErrNoPlan, alg)
	}
	return PlanReport{
		Algorithm:  alg,
		Plan:       res.Plan,
		Score:      res.EC,
		EC:         ec,
		PhaseEC:    res.PhaseEC,
		Candidates: res.Candidates,
		Probes:     res.Probes,
	}, nil
}

// AppendCacheKey appends to dst the plan-cache key of optimizing this
// scenario with alg — the exact binary encoding of everything the
// optimization reads (plancache.AppendKey), a few hundred opaque bytes,
// built without allocating for hot paths that keep a reusable buffer of
// plancache.KeyLen capacity and look plans up with
// Cache.GetBytes/ProbeBytes. With driftBand <= 1 the key is
// statistics-exact: scenarios whose keys are equal are optimized
// identically, so their PlanReports may be shared, and any change to the
// catalog statistics, query, environment laws or options yields a new key
// (stale entries age out of the LRU — there is no explicit invalidation).
// With driftBand > 1 distinct counts are bucketed into geometric bands of
// that base before the catalog is digested (catalog.BandedFingerprint), so
// statistics drift *within* a band maps to the same key and a drifting
// tenant keeps hitting the cached plan. margin offsets those bands by that
// many band units — the band-edge hysteresis probe key: statistics within
// |margin| of a band boundary key, under the matching-signed margin,
// exactly as their across-the-boundary neighbor does under margin 0.
func (s *Scenario) AppendCacheKey(dst []byte, alg Algorithm, driftBand, margin float64) ([]byte, error) {
	if err := s.check(); err != nil {
		return dst, err
	}
	// Key only the inputs this algorithm reads: TopC steers Algorithm B
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

// Compare optimizes with several algorithms and returns the reports in the
// given order (all evaluated under the same environment).
func (s *Scenario) Compare(algs ...Algorithm) ([]PlanReport, error) {
	out := make([]PlanReport, 0, len(algs))
	for _, a := range algs {
		r, err := s.Optimize(a)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// paperCost is the evaluator under the paper's cost model: Simulate and
// Tournament price each sampled trajectory with it.
func paperCost(p *plan.Node, laws []dist.Dist) (float64, error) {
	return optimizer.ExpectedCostModel(cost.ModelPaper, p, laws)
}

// Simulate Monte-Carlo-executes a plan's cost model under the environment.
func (s *Scenario) Simulate(p *plan.Node, runs int, seed int64) (envsim.RunStats, error) {
	if err := s.check(); err != nil {
		return envsim.RunStats{}, err
	}
	return envsim.Simulate(p, s.Env, runs, rand.New(rand.NewSource(seed)), paperCost)
}

// Tournament runs a common-random-numbers realized-cost comparison of the
// given reports' plans.
func (s *Scenario) Tournament(reports []PlanReport, runs int, seed int64) (envsim.TournamentResult, error) {
	if err := s.check(); err != nil {
		return envsim.TournamentResult{}, err
	}
	t := &envsim.Tournament{}
	for _, r := range reports {
		t.Names = append(t.Names, r.Algorithm.String())
		t.Plans = append(t.Plans, r.Plan)
	}
	return t.Run(s.Env, runs, rand.New(rand.NewSource(seed)), paperCost)
}

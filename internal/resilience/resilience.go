// Package resilience is a serving-policy wrapper around the core.Optimizer
// service handle: per-tenant optimization budgets that gate cold-path plan
// computation under overload, hedged re-optimization for tail latency,
// circuit breakers that trip on drift churn (cache-miss + rank-flip rate)
// and serve degraded-but-cheap plans while open. Only bench/'s resilience
// probe calls it; ROADMAP item 11(i) deletes the probe, and this package
// with it.
//
// Latency here is *modeled*: an injected LatencySpec prices each served
// path in virtual microseconds, and every request carries its own
// timestamp (Request.At; decision logic never reads the wall clock), so the
// same request sequence settles to the same decisions on any machine. The
// plans themselves are real — every path serves an executable plan from
// the wrapped handle.
package resilience

import (
	"sync"

	"lecopt/internal/core"
	"lecopt/internal/dist"
	"lecopt/internal/envsim"
)

// LatencySpec prices the serving paths in virtual microseconds of modeled
// optimizer work. The cold path scales with what the optimizer actually
// did (candidates enumerated, plan-space probes), so heavy queries cost
// proportionally more budget and hedge more often.
type LatencySpec struct {
	// Hit is a plan-cache hit (any path that serves a cached plan).
	Hit Micros
	// ColdBase + PerCandidate·Candidates + PerProbe·Probes is a cold
	// optimization's modeled duration; ColdBase is also the budget
	// admission floor.
	ColdBase     Micros
	PerCandidate Micros
	PerProbe     Micros
	// Degraded is a modal-point LSC fallback plan.
	Degraded Micros
}

// Config wires a Wrapper. Zero-valued specs disable their mechanism.
type Config struct {
	Budget  BudgetSpec
	Breaker BreakerSpec
	Hedge   HedgeSpec
	Latency LatencySpec
}

// Decision labels the policy that served a request.
type Decision string

const (
	// decisionHit: served from the drift-banded plan cache on the fast
	// path (no budget or breaker involvement).
	decisionHit Decision = "hit"
	// decisionCold: admitted cold optimization, no hedge fired.
	decisionCold Decision = "cold"
	// decisionColdHedged: admitted cold optimization with a hedge fired.
	decisionColdHedged Decision = "cold-hedged"
	// decisionDeniedCache: over budget, served the nearest banded cached
	// plan from a widened band search.
	decisionDeniedCache Decision = "denied-cache"
	// decisionDeniedDegraded: over budget and nothing cached nearby,
	// served a degraded modal-point plan.
	decisionDeniedDegraded Decision = "denied-degraded"
	// decisionBreakerCache: breaker open, served a nearest cached plan.
	decisionBreakerCache Decision = "breaker-cache"
	// decisionBreakerDegraded: breaker open, served a degraded plan.
	decisionBreakerDegraded Decision = "breaker-degraded"
	// decisionBreakerTrial: half-open trial re-optimization.
	decisionBreakerTrial Decision = "breaker-trial"
)

// nearestMargins is the widened band search (in band units, nearest
// first) used when a denied or breaker-open tenant must be served from
// cache: up to two full bands away — a plan optimized for statistics 4x
// off is degraded service, but it is *service*.
var nearestMargins = []float64{0.25, 0.5, 1, 2}

// Request is one tenant request through the wrapper.
type Request struct {
	// Tenant keys the budget, breaker and hedge state.
	Tenant string
	// Query labels the request in rank-flip tracking: requests that should
	// serve the same plan share it.
	Query string
	// At is the virtual time the wrapper takes the request: budget
	// refill and breaker cooldowns run on it. Time may move backwards
	// between requests (a fresh load level restarts at 0); the state
	// machines treat a regression as a restart.
	At Micros
	// Core is the underlying optimization request.
	Core core.Request
	// PrimaryJitter and HedgeJitter scale the two attempts' modeled cold
	// durations (<= 0 means 1). The caller draws them from its own seeded
	// source — the wrapper owns no randomness.
	PrimaryJitter float64
	HedgeJitter   float64
}

// Outcome is the settled result of one request.
type Outcome struct {
	core.Response
	Decision Decision
	// Served is the modeled latency the caller experienced; Charged is
	// the modeled work billed to the tenant's budget; Wasted is the
	// loser's abandoned share of Charged when a hedge fired.
	Served  Micros
	Charged Micros
	Wasted  Micros
	// Hedge is the hedge outcome, empty when none fired (disabled,
	// unarmed, or the primary beat the delay).
	Hedge HedgeOutcome
	// Breaker is the tenant's breaker state at decision time.
	Breaker string
	// Degraded marks a modal-point fallback plan.
	Degraded bool
}

// tenantState is everything the wrapper remembers about one tenant.
type tenantState struct {
	budget   budget
	breaker  breaker
	hedge    hedger
	lastPlan map[string]string // query -> last normally-served plan signature
}

// Wrapper applies the resilience policies around a core.Optimizer. It is
// concurrency-safe; the optimizer calls themselves run outside the
// wrapper's mutex, so cold optimizations do not serialize other tenants.
type Wrapper struct {
	opt *core.Optimizer
	cfg Config

	mu      sync.Mutex
	tenants map[string]*tenantState
}

// New wraps opt with the configured policies.
func New(opt *core.Optimizer, cfg Config) *Wrapper {
	return &Wrapper{opt: opt, cfg: cfg, tenants: make(map[string]*tenantState)}
}

func (w *Wrapper) tenant(name string) *tenantState {
	ts, ok := w.tenants[name]
	if !ok {
		ts = &tenantState{lastPlan: make(map[string]string)}
		ts.budget.spec = w.cfg.Budget
		ts.breaker.spec = w.cfg.Breaker
		ts.hedge.spec = w.cfg.Hedge
		w.tenants[name] = ts
	}
	return ts
}

// coldCost prices a cold optimization from the report's bookkeeping.
func (w *Wrapper) coldCost(resp core.Response) Micros {
	l := w.cfg.Latency
	return l.ColdBase + l.PerCandidate*Micros(resp.Candidates) + l.PerProbe*Micros(resp.Probes)
}

func jittered(d Micros, j float64) Micros {
	if j <= 0 {
		return d
	}
	return Micros(float64(d) * j)
}

// degraded serves the cheapest defensible plan: modal-point LSC — the
// least-specific-cost plan at the tenant's most likely memory level. It
// flows through the wrapped handle, so it is cached like any plan and
// costs real compute only once per band.
func (w *Wrapper) degraded(req Request) (core.Response, error) {
	deg := req.Core
	deg.Alg = core.AlgLSCMode
	deg.Env = envsim.Env{Mem: dist.Point(deg.Env.Mem.Mode())}
	return w.opt.Optimize(deg)
}

// Do serves one request under the tenant's budget, breaker and hedge
// state at time req.At, and returns the settled outcome. Every path
// yields a plan (or an error in Outcome.Err); resilience means degraded
// service, not refusal.
func (w *Wrapper) Do(req Request) Outcome {
	// Phase 1 — classify under the lock: breaker phase, budget admission,
	// and the rank-flip baseline. No optimizer work happens here.
	w.mu.Lock()
	ts := w.tenant(req.Tenant)
	phase := ts.breaker.phase(req.At)
	lastSig := ts.lastPlan[req.Query]
	admitted := true
	if phase == breakerClosed {
		ts.budget.refill(req.At)
		admitted = ts.budget.admit(w.cfg.Latency.ColdBase)
	}
	w.mu.Unlock()

	// Phase 2 — serve outside the lock: cache probes, optimizations and
	// the degraded fallback are the expensive part and must not serialize
	// other tenants.
	var out Outcome
	var churn, recordChurn, isTrial, settlePlan, cold bool
	var primaryDur, hedgeDur Micros
	switch phase {
	case breakerOpen:
		if resp, ok := w.opt.Cached(req.Core, nearestMargins...); ok {
			out = Outcome{Response: resp, Decision: decisionBreakerCache, Served: w.cfg.Latency.Hit}
		} else {
			resp, err := w.degraded(req)
			out = Outcome{Response: resp, Decision: decisionBreakerDegraded, Served: w.cfg.Latency.Degraded, Degraded: err == nil}
		}
	case breakerHalfOpen:
		isTrial = true
		out.Decision = decisionBreakerTrial
		resp, err := w.opt.Optimize(req.Core)
		out.Response = resp
		if err != nil {
			churn = true // an unoptimizable trial is not a recovery
		} else {
			sig := resp.Plan.Signature()
			churn = !resp.CacheHit || (lastSig != "" && lastSig != sig)
			settlePlan = true
			if resp.CacheHit {
				out.Served = w.cfg.Latency.Hit
			} else {
				primaryDur = jittered(w.coldCost(resp), req.PrimaryJitter)
				out.Served = primaryDur
				out.Charged = primaryDur
			}
		}
	default: // closed
		if resp, ok := w.opt.Cached(req.Core); ok {
			out = Outcome{Response: resp, Decision: decisionHit, Served: w.cfg.Latency.Hit}
			churn = lastSig != "" && lastSig != resp.Plan.Signature()
			recordChurn, settlePlan = true, true
		} else if !admitted {
			// A denied request was still a primary-band cache miss, so it
			// records as churn: an overloaded tenant whose drift keeps
			// missing converges to the breaker's degraded serving instead
			// of denying cold work forever.
			churn, recordChurn = true, true
			if resp, ok := w.opt.Cached(req.Core, nearestMargins...); ok {
				out = Outcome{Response: resp, Decision: decisionDeniedCache, Served: w.cfg.Latency.Hit}
				settlePlan = true
			} else {
				resp, err := w.degraded(req)
				out = Outcome{Response: resp, Decision: decisionDeniedDegraded, Served: w.cfg.Latency.Degraded, Degraded: err == nil}
			}
		} else {
			resp, err := w.opt.Optimize(req.Core)
			out.Response = resp
			if err == nil {
				settlePlan = true
				if resp.CacheHit {
					// The margin-probe hysteresis (or a concurrent fill)
					// landed a hit the fast path missed: a hit is a hit.
					out.Decision = decisionHit
					out.Served = w.cfg.Latency.Hit
					churn = lastSig != "" && lastSig != resp.Plan.Signature()
					recordChurn = true
				} else {
					cold, churn, recordChurn = true, true, true
					primaryDur = jittered(w.coldCost(resp), req.PrimaryJitter)
					hedgeDur = jittered(w.coldCost(resp), req.HedgeJitter)
				}
			} else {
				out.Decision = decisionCold
			}
		}
	}
	out.Breaker = phase.String()

	// Phase 3 — settle under the lock: hedge resolution (the delay
	// quantile reads tenant state), budget charge, breaker bookkeeping and
	// the rank-flip baseline.
	w.mu.Lock()
	if cold {
		hr := ts.hedge.resolve(primaryDur, hedgeDur)
		ts.hedge.record(primaryDur)
		out.Served, out.Charged, out.Wasted, out.Hedge = hr.served, hr.charged, hr.wasted, hr.outcome
		out.Decision = decisionCold
		if hr.fired {
			out.Decision = decisionColdHedged
		}
	}
	if isTrial {
		ts.breaker.trialResult(churn, req.At)
	} else if recordChurn {
		ts.breaker.record(churn, req.At)
	}
	ts.budget.charge(out.Charged)
	if settlePlan && out.Plan != nil {
		ts.lastPlan[req.Query] = out.Plan.Signature()
	}
	w.mu.Unlock()
	return out
}

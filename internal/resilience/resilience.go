// Package resilience is the cache-or-optimize shell that bench/'s
// resilience probe times: Do serves a request from the plan cache, else
// optimizes it, and prices the path it took with a modeled latency list.
// Only that probe calls it; ROADMAP item 1 deletes the probe, and this
// package with it.
package resilience

import "lecopt/internal/core"

// LatencySpec prices the serving paths in modeled microseconds of
// optimizer work. The cold path scales with what the optimizer actually
// did (candidates enumerated, plan-space probes).
type LatencySpec struct {
	// Hit is a plan-cache hit.
	Hit int64
	// ColdBase + PerCandidate·Candidates + PerProbe·Probes is a cold
	// optimization's modeled duration.
	ColdBase     int64
	PerCandidate int64
	PerProbe     int64
}

// Config wires a Wrapper.
type Config struct {
	Latency LatencySpec
}

// Request is one tenant request through the wrapper.
type Request struct {
	// Tenant and Query label the request; Do does not read them.
	Tenant string
	Query  string
	// Core is the underlying optimization request.
	Core core.Request
}

// Outcome is one served request: the handle's response and the modeled
// latency of the path that served it.
type Outcome struct {
	core.Response
	Served int64
}

// Wrapper serves requests through a core.Optimizer. It holds no state of
// its own, so it is as concurrency-safe as the handle it wraps.
type Wrapper struct {
	opt *core.Optimizer
	cfg Config
}

// New wraps opt.
func New(opt *core.Optimizer, cfg Config) *Wrapper {
	return &Wrapper{opt: opt, cfg: cfg}
}

// Do serves req from the plan cache when it can, at the Hit price, and
// otherwise optimizes it, at the cold price of the work the optimizer
// reports. A failure is on the outcome's Err.
func (w *Wrapper) Do(req Request) Outcome {
	l := w.cfg.Latency
	if resp, ok := w.opt.Cached(req.Core); ok {
		return Outcome{Response: resp, Served: l.Hit}
	}
	resp, _ := w.opt.Optimize(req.Core) // the error is also resp.Err
	return Outcome{Response: resp, Served: l.ColdBase + l.PerCandidate*int64(resp.Candidates) + l.PerProbe*int64(resp.Probes)}
}

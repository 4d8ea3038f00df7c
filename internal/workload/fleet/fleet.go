// Package fleet holds the modeled latency price list that bench/'s
// resilience probe relates to measured hit and miss times. Only that probe
// reads it; ROADMAP item 11(i) deletes the probe, and this package with it.
package fleet

import "lecopt/internal/resilience"

// Spec is the resilience layer's modeled latency price list.
type Spec struct {
	Latency resilience.LatencySpec
}

// DefaultSpec returns the canonical price list, in virtual microseconds:
// a cache hit 150, a cold optimization 1500 plus 40 per candidate and 5
// per probe, a degraded plan 400.
func DefaultSpec() (Spec, error) {
	return Spec{
		Latency: resilience.LatencySpec{
			Hit: 150, ColdBase: 1500, PerCandidate: 40, PerProbe: 5,
			Degraded: 400,
		},
	}, nil
}

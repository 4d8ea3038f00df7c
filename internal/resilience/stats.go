package resilience

import "sort"

// TenantStats is one tenant's settled counters.
type TenantStats struct {
	Tenant string `json:"tenant"`
	// Requests served (all decisions).
	Requests int `json:"requests"`
	// Denials is budget-denied requests (served from cache or degraded).
	Denials int `json:"denials,omitempty"`
	// Trips and Reopens are closed→open and half-open→open transitions.
	Trips   int `json:"trips,omitempty"`
	Reopens int `json:"reopens,omitempty"`
	// OpenServed is requests served while the breaker was open.
	OpenServed int `json:"open_served,omitempty"`
	// Degraded is modal-point fallback plans served.
	Degraded int `json:"degraded,omitempty"`
	// Churn is recorded churn events (cold miss or rank flip).
	Churn int `json:"churn,omitempty"`
	// BudgetTokens is the closing token balance.
	BudgetTokens Micros `json:"budget_tokens"`
}

// Stats is a consistent snapshot of the wrapper's counters. Tenants are
// sorted by name and Decisions keys are sorted, so serializing a Stats is
// deterministic.
type Stats struct {
	Requests     int `json:"requests"`
	Errors       int `json:"errors"`
	ObserveCalls int `json:"observe_calls"`
	// Decisions counts requests by serving decision.
	Decisions []DecisionCount `json:"decisions"`
	// BudgetDenials is total budget-denied requests.
	BudgetDenials int `json:"budget_denials"`
	// Hedge accounting; Wins+Losses+Cancels == Fired always.
	HedgesFired  int `json:"hedges_fired"`
	HedgeWins    int `json:"hedge_wins"`
	HedgeLosses  int `json:"hedge_losses"`
	HedgeCancels int `json:"hedge_cancels"`
	// BreakerTrips and BreakerReopens sum the per-tenant transitions.
	BreakerTrips   int `json:"breaker_trips"`
	BreakerReopens int `json:"breaker_reopens"`
	// Tenants is the per-tenant breakdown, sorted by tenant name.
	Tenants []TenantStats `json:"tenants,omitempty"`
}

// DecisionCount is one decision's tally (a sorted slice rather than a map
// so the JSON form is deterministic).
type DecisionCount struct {
	Decision Decision `json:"decision"`
	Count    int      `json:"count"`
}

// Stats snapshots the wrapper.
func (w *Wrapper) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := Stats{
		Requests:     w.requests,
		Errors:       w.errors,
		ObserveCalls: w.observeCalls,
		HedgesFired:  w.hedgesFired,
		HedgeWins:    w.hedgeWins,
		HedgeLosses:  w.hedgeLosses,
		HedgeCancels: w.hedgeCancels,
	}
	for d, n := range w.decisions {
		s.Decisions = append(s.Decisions, DecisionCount{Decision: d, Count: n})
	}
	sort.Slice(s.Decisions, func(i, j int) bool { return s.Decisions[i].Decision < s.Decisions[j].Decision })
	names := make([]string, 0, len(w.tenants))
	for name := range w.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ts := w.tenants[name]
		s.BudgetDenials += ts.denials
		s.BreakerTrips += ts.breaker.trips
		s.BreakerReopens += ts.breaker.reopens
		s.Tenants = append(s.Tenants, TenantStats{
			Tenant:       name,
			Requests:     ts.requests,
			Denials:      ts.denials,
			Trips:        ts.breaker.trips,
			Reopens:      ts.breaker.reopens,
			OpenServed:   ts.openServed,
			Degraded:     ts.degraded,
			Churn:        ts.churn,
			BudgetTokens: ts.budget.tokens,
		})
	}
	return s
}

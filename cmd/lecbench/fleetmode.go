package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"lecopt"
)

// fleetModeConfig parameterizes one fleet-scale resilience run.
type fleetModeConfig struct {
	Tenants   int // 0: spec default
	Requests  int // stream length per load level
	Seed      int64
	Workers   int
	CacheSize int
	DriftBand float64 // 0: service default
}

// runFleetMode drives the fleet simulator — Zipf tenant traffic over
// shared-catalog groups, replayed at each offered load level through the
// resilience wrapper — prints a per-level summary and writes the
// BENCH_fleet.json artifact. It gates on zero errors, on every level's
// decision counts summing to its requests, and on the fleet keeping
// aggregate realized LEC <= LSC with tenant-aggregate rank consistency.
func runFleetMode(cfg fleetModeConfig, jsonPath string, w io.Writer) (*lecopt.FleetReport, error) {
	spec, err := lecopt.DefaultFleetSpec()
	if err != nil {
		return nil, err
	}
	if cfg.Tenants > 0 {
		spec.Tenants = cfg.Tenants
	}
	rep, err := lecopt.RunFleet(spec, lecopt.FleetRun{
		Requests:  cfg.Requests,
		Seed:      cfg.Seed,
		Workers:   cfg.Workers,
		CacheSize: cfg.CacheSize,
		DriftBand: cfg.DriftBand,
	})
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "fleet: %d tenants (%d churn) x %d groups, %d queries, %d requests/level (seed %d)\n",
		rep.Tenants, rep.ChurnTenants, rep.Groups, rep.Queries, rep.RequestsPerLevel, rep.Seed)
	fmt.Fprintf(w, "  policies: %s baseline vs %s served, drift band %g\n",
		rep.LSCAlgorithm, rep.LECAlgorithm, rep.DriftBand)
	for _, lvl := range rep.Levels {
		fmt.Fprintf(w, "  level %8.0f qps: ratio %.4f (pred %.4f), optimize p50/p99 %.0f/%.0f us, wait mean/max %.0f/%d us\n",
			lvl.QPS, lvl.RealizedRatio, lvl.PredictedRatio,
			lvl.OptimizeLatency.P50, lvl.OptimizeLatency.P99,
			lvl.MeanWaitMicros, lvl.MaxWaitMicros)
		fmt.Fprintf(w, "    resilience: %d denials, %d hedges (%dw/%dl/%dc), %d trips, %d reopens, %d open-served, %d degraded\n",
			lvl.BudgetDenials, lvl.HedgesFired, lvl.HedgeWins, lvl.HedgeLosses, lvl.HedgeCancels,
			lvl.BreakerTrips, lvl.BreakerReopens, lvl.OpenServed, lvl.DegradedServed)
		fmt.Fprintf(w, "    plan cache %.1f%% of fast-path misses, %d observe calls\n",
			100*lvl.PlanCacheHitRate, lvl.ObserveCalls)
		for _, ts := range lvl.ChurnTenantStats {
			fmt.Fprintf(w, "    churn %-12s %4d req: %d denials, %d trips, %d open-served, %d degraded, churn %d\n",
				ts.Tenant, ts.Requests, ts.Denials, ts.Trips, ts.OpenServed, ts.Degraded, ts.Churn)
		}
	}
	fmt.Fprintf(w, "  fleet realized I/O: %s=%d pages, %s=%d pages, ratio %.4f (predicted %.4f)\n",
		rep.LSCAlgorithm, rep.TotalLSCIO, rep.LECAlgorithm, rep.TotalLECIO,
		rep.RealizedRatio, rep.PredictedRatio)

	if jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return rep, err
		}
		if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
			return rep, err
		}
		fmt.Fprintf(w, "  wrote %s\n", jsonPath)
	}

	// CI gates. The artifact is written first so a failing run leaves
	// its evidence behind.
	reconciled := true
	for _, lvl := range rep.Levels {
		decided := 0
		for _, dc := range lvl.Decisions {
			decided += dc.Count
		}
		reconciled = reconciled && decided == lvl.Requests
	}
	fmt.Fprintf(w, "  claim (fleet aggregate realized LEC <= LSC): %s\n", verdict(rep.TotalLECIO <= rep.TotalLSCIO))
	fmt.Fprintf(w, "  claim (per-archetype analytic ranking matches realized ranking): %s\n", verdict(rep.RankAgreement))
	fmt.Fprintf(w, "  claim (every level's decisions sum to its requests): %s\n", verdict(reconciled))
	switch {
	case rep.Errors != 0:
		return rep, fmt.Errorf("fleet run had %d errors", rep.Errors)
	case rep.TotalLECIO > rep.TotalLSCIO:
		return rep, fmt.Errorf("fleet aggregate realized LEC exceeded LSC: %d > %d pages",
			rep.TotalLECIO, rep.TotalLSCIO)
	case !rep.RankAgreement:
		return rep, fmt.Errorf("fleet rank agreement violated; see %s archetype_stats", jsonPath)
	case !reconciled:
		return rep, fmt.Errorf("fleet decision counts do not sum to requests; see %s decisions", jsonPath)
	}
	return rep, nil
}

// verdict renders a claim's outcome for the summary line.
func verdict(holds bool) string {
	if holds {
		return "HOLDS"
	}
	return "VIOLATED"
}

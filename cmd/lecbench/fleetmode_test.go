package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lecopt"
)

// TestFleetModeAcceptance regenerates BENCH_fleet.json at the CI smoke
// scale (256 tenants, 2 load levels, 400 requests each) and asserts the
// ISSUE acceptance criteria against the artifact on disk — not the
// printed summary: budget denials engage at the highest load while the
// denied tenants keep being served, at least one engineered churn tenant
// trips its breaker and receives service while open, hedge accounting
// balances, and fleet-aggregate realized LEC stays <= LSC.
func TestFleetModeAcceptance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_fleet.json")
	var out strings.Builder
	rep, err := runFleetMode(fleetModeConfig{Tenants: 256, Requests: 400, Seed: 1}, path, &out)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var art lecopt.FleetReport
	if err := json.Unmarshal(buf, &art); err != nil {
		t.Fatal(err)
	}
	if art.TotalLECIO != rep.TotalLECIO || art.TotalLSCIO != rep.TotalLSCIO ||
		art.RequestsPerLevel != rep.RequestsPerLevel {
		t.Fatalf("artifact disagrees with returned report: %+v vs %+v", art, rep)
	}

	if art.Tenants < 256 || len(art.Levels) < 2 {
		t.Fatalf("acceptance scale not met: %d tenants, %d levels", art.Tenants, len(art.Levels))
	}
	if art.Errors != 0 {
		t.Fatalf("fleet run had %d errors", art.Errors)
	}

	// Aggregate claim: realized LEC <= LSC fleet-wide.
	if art.TotalLECIO > art.TotalLSCIO {
		t.Fatalf("fleet aggregate realized LEC %d > LSC %d", art.TotalLECIO, art.TotalLSCIO)
	}
	if art.RealizedRatio > 1.0 {
		t.Fatalf("realized ratio %v > 1.0", art.RealizedRatio)
	}
	if !art.RankAgreement {
		t.Fatal("per-archetype rank agreement violated")
	}

	// Budget denials engage at the highest load level — and every request
	// was still answered (errors stay zero; denied requests land on the
	// denied-cache / denied-degraded decisions).
	high := art.Levels[0]
	for _, lvl := range art.Levels[1:] {
		if lvl.QPS > high.QPS {
			high = lvl
		}
	}
	if high.BudgetDenials == 0 {
		t.Fatalf("no budget denials at the highest load level (%v qps)", high.QPS)
	}
	denialServed := 0
	for _, dc := range high.Decisions {
		if dc.Decision == "denied-cache" || dc.Decision == "denied-degraded" {
			denialServed += dc.Count
		}
	}
	if denialServed != high.BudgetDenials {
		t.Fatalf("denied requests not all served: %d decisions vs %d denials",
			denialServed, high.BudgetDenials)
	}

	// At least one engineered churn tenant trips its breaker and is still
	// served while the breaker is open.
	for _, lvl := range art.Levels {
		tripped := false
		for _, ts := range lvl.ChurnTenantStats {
			if ts.Trips >= 1 && ts.OpenServed >= 1 {
				tripped = true
			}
		}
		if !tripped {
			t.Fatalf("level %v qps: no churn tenant tripped with open-state service: %+v",
				lvl.QPS, lvl.ChurnTenantStats)
		}
		// Hedge accounting identity per level.
		if lvl.HedgeWins+lvl.HedgeLosses+lvl.HedgeCancels != lvl.HedgesFired {
			t.Fatalf("level %v qps: hedge accounting broken: %d+%d+%d != %d",
				lvl.QPS, lvl.HedgeWins, lvl.HedgeLosses, lvl.HedgeCancels, lvl.HedgesFired)
		}
		// The per-request optimize-latency histogram covers every served
		// request with sane quantile ordering.
		h := lvl.OptimizeLatency
		if h.Count != lvl.Requests-lvl.Errors {
			t.Fatalf("level %v qps: histogram count %d, want %d", lvl.QPS, h.Count, lvl.Requests-lvl.Errors)
		}
		if h.P50 > h.P99 || h.P99 > h.Max || h.P50 <= 0 {
			t.Fatalf("level %v qps: implausible latency quantiles %+v", lvl.QPS, h)
		}
	}

	for _, want := range []string{
		"fleet:", "resilience:", "churn tenant-",
		"claim (fleet aggregate realized LEC <= LSC): HOLDS",
		"claim (per-archetype analytic ranking matches realized ranking): HOLDS",
		"claim (every level's decisions sum to its requests): HOLDS",
		"wrote ",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, out.String())
		}
	}
}

// TestFleetModeBadConfig: a zero-request fleet run must fail loudly.
func TestFleetModeBadConfig(t *testing.T) {
	if _, err := runFleetMode(fleetModeConfig{Requests: 0, Seed: 1}, "", nil); err == nil {
		t.Fatal("zero-request fleet run accepted")
	}
}

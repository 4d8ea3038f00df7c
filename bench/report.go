package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func num(v float64) string {
	switch a := math.Abs(v); {
	case v == 0:
		return "0"
	case a >= 1000:
		return fmt.Sprintf("%.0f", v)
	case a >= 10:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// printOutcome prints everything one (workload, pass) measured: each
// metric by name with its unit, median, spread and sample count.
func printOutcome(o *outcome) {
	pass := "timed passes, tracing off"
	if o.Traced {
		pass = "traced pass and layer probes"
	}
	fmt.Printf("\n== %s, seed %d: %s ==\n", o.Workload, o.Seed, pass)
	fmt.Printf("%-38s %14s %14s %14s %14s %3s  %s\n", "metric", "value", "median", "min", "max", "n", "unit")
	for _, name := range sortedKeys(o.Metrics) {
		s := o.Metrics[name]
		fmt.Printf("%-38s %14s %14s %14s %14s %3d  %s\n", name, num(s.Value), num(s.Median), num(s.Min), num(s.Max), s.N, s.Unit)
	}
	for _, name := range sortedKeys(o.Info) {
		fmt.Printf("  %-36s %s\n", name, num(o.Info[name]))
	}
	if o.Traced {
		fmt.Printf("  trace.coverage is expected within 0.8-1.25: the layer spans must add up to the end-to-end span\n")
	}
	fmt.Printf("checks: %d attempted, %d failed", o.Attempted, o.Failed)
	if o.Correct {
		fmt.Println(", correct")
	} else {
		fmt.Println(", NOT CORRECT")
		for _, p := range o.Problems {
			fmt.Println("  problem:", p)
		}
	}
}

// printTable prints the end-to-end figures of every workload side by side.
func printTable(workloads []string, results map[string]map[string]summary) {
	fmt.Printf("\n== end-to-end ==\n%-20s", "metric")
	for _, w := range workloads {
		fmt.Printf(" %16s", w)
	}
	fmt.Println()
	for _, d := range tableMetrics() {
		fmt.Printf("%-20s", d.Name)
		for _, w := range workloads {
			s, ok := results[w][d.Name]
			if !ok {
				fmt.Printf(" %16s", "-") // the metric does not apply to this workload
				continue
			}
			fmt.Printf(" %16s", num(s.Value))
		}
		fmt.Printf("  %s\n", d.Unit)
	}
}

// aaRow compares one metric of one workload across two runs of the same
// code.
type aaRow struct {
	workload, metric string
	a, b, diff       float64 // diff: relative worsening of b against a
	bound            float64
	pass             bool
}

// runAA runs the selected workloads twice, back to back, each in fresh
// child processes, and holds the second run's medians against the first's
// with the benchmark's own bounds. Metrics without a bound are counts that
// must repeat exactly.
func runAA(o options) (bool, error) {
	var rows []aaRow
	ok := true
	for _, name := range o.workloads {
		var runs [2]*outcome
		for i := range runs {
			out, err := child(o, name, false)
			if err != nil {
				return false, err
			}
			ok = ok && out.Correct
			runs[i] = out
		}
		for _, d := range tableMetrics() {
			a, has := runs[0].Metrics[d.Name]
			if !has {
				continue
			}
			b := runs[1].Metrics[d.Name]
			row := aaRow{workload: name, metric: d.Name, a: a.Value, b: b.Value, bound: d.Bound}
			switch {
			case exactMetric(d) || a.Value == 0:
				row.bound = 0
				row.pass = a.Value == b.Value
			default:
				row.diff = (b.Value - a.Value) / a.Value
				if d.Better == higher {
					row.diff = -row.diff
				}
				// A difference below a hundredth of the unit is no difference:
				// a warm hit allocates 0.00002 objects per request.
				row.pass = row.diff <= d.Bound || math.Abs(b.Value-a.Value) < 0.01
			}
			ok = ok && row.pass
			rows = append(rows, row)
		}
	}
	fmt.Printf("\n== A/A, seed %d: two runs of the same code ==\n", o.seed)
	fmt.Println("| workload | metric | run 1 | run 2 | worse by | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, r := range rows {
		verdict := "PASS"
		if !r.pass {
			verdict = "FAIL"
		}
		bound, diff := "exact", "-"
		if r.bound > 0 {
			bound, diff = fmt.Sprintf("%.0f %%", r.bound*100), fmt.Sprintf("%+.1f %%", r.diff*100)
		}
		fmt.Printf("| %s | %s | %s | %s | %s | %s | %s |\n", r.workload, r.metric, num(r.a), num(r.b), diff, bound, verdict)
	}
	return ok, nil
}

// exactMetric reports whether a metric is a count or a ratio of counts
// that must be bit-identical between two runs of one seed.
func exactMetric(d metricDef) bool {
	switch strings.TrimPrefix(d.Name, runPrefix) {
	case "ec_ratio", "pages_per_req", "realized_io_ratio", "error_share":
		return true
	}
	return false
}

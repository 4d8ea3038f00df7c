// Package experiments implements the reproduction harness: one function
// per experiment in DESIGN.md's per-experiment index (E1-E20), each
// regenerating a table that checks a claim of Chu, Halpern and Seshadri
// (PODS 1999) — Example 1.1, Proposition 3.1, Theorems 2.1/3.2/3.3/3.4,
// the Section 3.6 complexity results and the Section 3.7 bucketing
// strategies. cmd/lecbench renders every table; bench_test.go wraps each
// experiment in a testing.B benchmark; EXPERIMENTS.md records the outputs
// against the paper's claims.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Errors.
var (
	ErrUnknownExperiment = errors.New("experiments: unknown experiment")
)

// Table is one experiment's result.
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
	// Pass reports whether the experiment's qualitative claim held.
	Pass bool
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		return "  " + strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(t.Headers)); err != nil {
		return err
	}
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(sep)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	status := "PASS"
	if !t.Pass {
		status = "FAIL"
	}
	_, err := fmt.Fprintf(w, "  claim: %s\n\n", status)
	return err
}

// Experiment pairs an ID with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func() (Table, error)
}

// All returns every experiment in ID order.
func All() []Experiment {
	exps := []Experiment{
		{"E1", "Example 1.1: LSC picks Plan 1, LEC picks Plan 2", E1MotivatingExample},
		{"E2", "LEC advantage grows with run-time variance", E2VarianceSweep},
		{"E3", "Theorem 2.1: System R DP equals exhaustive LSC", E3SystemRBaseline},
		{"E4", "Algorithm A never loses to mean/mode LSC", E4AlgorithmA},
		{"E5", "Proposition 3.1: top-c frontier probe bound", E5TopCFrontier},
		{"E6", "Algorithm B: candidate quality vs c", E6AlgorithmB},
		{"E7", "Theorem 3.3: Algorithm C is exactly LEC; hierarchy", E7AlgorithmC},
		{"E8", "Algorithm C cost scales linearly in buckets", E8AlgCScaling},
		{"E9", "Theorem 3.4: dynamic memory (Markov phases)", E9DynamicMemory},
		{"E10", "Algorithm D: joint memory/size/selectivity laws", E10AlgorithmD},
		{"E11", "§3.6.1 linear-time sort-merge expected cost", E11SortMergeLinear},
		{"E12", "§3.6.2 linear-time nested-loop expected cost", E12NestedLoopLinear},
		{"E13", "§3.6.3 result-size rebucketing", E13Rebucketing},
		{"E14", "§3.7 bucketing strategies", E14Bucketing},
		{"E15", "Cost-model shape vs measured engine I/O", E15EngineValidation},
		{"E16", "Fleet: optimize once, run many", E16Fleet},
		{"E17", "Whole-plan execution on the mini engine", E17EndToEnd},
		{"E18", "Parametric LEC plan cache [INSS92]", E18Parametric},
		{"E19", "§3.7 level-set expected-cost evaluation", E19LevelSetEC},
		{"E20", "§3.7 coarse-then-refine optimization", E20Refinement},
	}
	sort.SliceStable(exps, func(i, j int) bool {
		return numOf(exps[i].ID) < numOf(exps[j].ID)
	})
	return exps
}

func numOf(id string) int {
	n := 0
	fmt.Sscanf(id, "E%d", &n)
	return n
}

// ByID returns one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("%w: %s", ErrUnknownExperiment, id)
}

// fmtF renders a float compactly.
func fmtF(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e15 && v > -1e15:
		return fmt.Sprintf("%d", int64(v))
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// fmtRatio renders a ratio with fixed precision.
func fmtRatio(v float64) string { return fmt.Sprintf("%.3f", v) }

package serving

import (
	"fmt"
	"sort"
	"strings"

	"lecopt/internal/plan"
)

// The phase ledger is the run's cost-attribution audit: every executed
// request contributes, for each execution phase of each policy's plan, a
// (tenant, policy, phase, operator, memory-band) cell joining the
// analytic per-phase charge — conditioned on the memory the executor
// actually saw in that phase (the evaluator over ExecResult.PhaseMem's point laws)
// — with the realized physical I/O the engine booked there
// (ExecResult.PhaseIO). Aggregated deltas localize model-vs-engine
// disagreement to a specific operator in a specific memory regime, which
// is exactly the information a total-I/O ratio destroys.

// LedgerCell is one aggregated cell of the phase ledger.
type LedgerCell struct {
	Tenant string `json:"tenant"`
	Policy string `json:"policy"` // "lsc" or "lec"
	Phase  int    `json:"phase"`
	// Operator describes the operators the model attributes to the
	// phase, in plan walk order: e.g. "grace-hash", "scan+page-nl",
	// "sort-merge+sort".
	Operator string `json:"operator"`
	// MemBand buckets the effective memory the phase ran with.
	MemBand string `json:"mem_band"`
	Samples int    `json:"samples"`
	// AnalyticIO sums the model's conditional per-phase charges;
	// RealizedIO sums the engine's booked phase I/O.
	AnalyticIO float64 `json:"analytic_io"`
	RealizedIO float64 `json:"realized_io"`
	// Delta is realized − analytic (positive: the engine paid more than
	// the model predicted at the realized memory); Ratio is
	// realized/analytic (1 when both are 0).
	Delta float64 `json:"delta"`
	Ratio float64 `json:"ratio"`
}

// cellKey identifies one ledger cell.
type cellKey struct {
	tenant   string
	policy   string
	phase    int
	operator string
	memBand  string
}

// ledger accumulates phase-attribution cells over a run.
type ledger struct {
	cells map[cellKey]*LedgerCell
	// opLabels memoizes phaseOperatorLabels by plan signature: the same
	// few plans execute thousands of times under Zipf popularity.
	opLabels map[string][]string
}

func newLedger() *ledger {
	return &ledger{cells: map[cellKey]*LedgerCell{}, opLabels: map[string][]string{}}
}

// memBand buckets an effective phase memory (pages) into the run's
// reporting bands. The boundaries are powers of two chosen so the default
// tenant levels {5, 9, 17, 40} land in distinct bands.
func memBand(mem float64) string {
	switch {
	case mem < 8:
		return "<8"
	case mem < 16:
		return "8-15"
	case mem < 32:
		return "16-31"
	default:
		return "32+"
	}
}

// phaseOperatorLabels renders one label per execution phase listing the
// operators the cost model attributes to it (joins and sorts in their
// phase, materialized scans in phase 0), joined by "+" in plan walk
// order. Unfiltered heap handoffs are invisible: their read is inside
// the consuming operator's formula.
func phaseOperatorLabels(p *plan.Node) []string {
	parts := make([][]string, p.Phases())
	var rec func(n *plan.Node) int
	rec = func(n *plan.Node) int {
		switch n.Kind {
		case plan.KindScan:
			if n.Materialized() {
				parts[0] = append(parts[0], "scan")
			}
			return 1
		case plan.KindSort:
			k := rec(n.Child)
			phase := 0
			if k >= 2 {
				phase = k - 2
			}
			parts[phase] = append(parts[phase], "sort")
			return k
		default: // join
			k := rec(n.Left) + rec(n.Right)
			parts[k-2] = append(parts[k-2], n.Method.String())
			return k
		}
	}
	rec(p)
	labels := make([]string, len(parts))
	for i, ps := range parts {
		if len(ps) == 0 {
			labels[i] = "none"
			continue
		}
		labels[i] = strings.Join(ps, "+")
	}
	return labels
}

// observe folds one executed plan into the ledger.
func (l *ledger) observe(tenant, policy string, p *plan.Node, out execOutcome) {
	sig := p.Signature()
	labels, ok := l.opLabels[sig]
	if !ok {
		labels = phaseOperatorLabels(p)
		l.opLabels[sig] = labels
	}
	for phase := range out.phaseIO {
		op := "none"
		if phase < len(labels) {
			op = labels[phase]
		}
		var mem float64
		if phase < len(out.phaseMem) {
			mem = out.phaseMem[phase]
		}
		var analytic float64
		if phase < len(out.condEC) {
			analytic = out.condEC[phase]
		}
		k := cellKey{tenant: tenant, policy: policy, phase: phase, operator: op, memBand: memBand(mem)}
		c := l.cells[k]
		if c == nil {
			c = &LedgerCell{Tenant: tenant, Policy: policy, Phase: phase, Operator: op, MemBand: k.memBand}
			l.cells[k] = c
		}
		c.Samples++
		c.AnalyticIO += analytic
		c.RealizedIO += float64(out.phaseIO[phase])
	}
}

// report finalizes the cells in a deterministic order.
func (l *ledger) report() []LedgerCell {
	out := make([]LedgerCell, 0, len(l.cells))
	for _, c := range l.cells {
		cc := *c
		cc.Delta = cc.RealizedIO - cc.AnalyticIO
		switch {
		case cc.AnalyticIO > 0:
			cc.Ratio = cc.RealizedIO / cc.AnalyticIO
		case cc.RealizedIO == 0:
			cc.Ratio = 1
		default:
			cc.Ratio = fInf
		}
		out = append(out, cc)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Tenant != b.Tenant {
			return a.Tenant < b.Tenant
		}
		if a.Policy != b.Policy {
			return a.Policy < b.Policy
		}
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		if a.Operator != b.Operator {
			return a.Operator < b.Operator
		}
		return bandRank(a.MemBand) < bandRank(b.MemBand)
	})
	return out
}

// bandRank orders memory-band labels low to high.
func bandRank(b string) int {
	for i, s := range []string{"<8", "8-15", "16-31", "32+"} {
		if b == s {
			return i
		}
	}
	return len(b) + 4 // unknown bands sort after known ones, by length
}

// fInf is the JSON-safe stand-in for an infinite realized/analytic ratio
// (analytic 0 with realized I/O > 0): encoding/json rejects +Inf.
const fInf = 1e308

// FindLedgerCell returns the first cell matching the given fields, or nil.
// Tests use it to pin specific attribution cells as regressions.
func FindLedgerCell(cells []LedgerCell, tenant, policy string, phase int, operator, band string) *LedgerCell {
	for i := range cells {
		c := &cells[i]
		if c.Tenant == tenant && c.Policy == policy && c.Phase == phase && c.Operator == operator && c.MemBand == band {
			return c
		}
	}
	return nil
}

// String renders a cell compactly for test failure messages.
func (c LedgerCell) String() string {
	return fmt.Sprintf("%s/%s phase=%d op=%s mem=%s n=%d analytic=%.1f realized=%.1f ratio=%.3f",
		c.Tenant, c.Policy, c.Phase, c.Operator, c.MemBand, c.Samples, c.AnalyticIO, c.RealizedIO, c.Ratio)
}

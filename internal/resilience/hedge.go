package resilience

import "sort"

// HedgeSpec is tail-latency hedging for admitted cold optimizations: when
// the primary attempt's modeled duration exceeds a quantile of the
// tenant's recent cold durations, a second attempt is (virtually) fired
// after that quantile delay, the first finisher's result is served, and
// the loser's work is accounted as waste and charged to the tenant's
// budget. The zero value disables hedging.
//
// Every fired hedge settles to exactly one of win, loss or cancel.
type HedgeSpec struct {
	// Quantile of the recent cold-duration window that sets the hedge
	// delay (e.g. 0.9: hedge fires when the primary outlives its p90).
	// <= 0 disables.
	Quantile float64
	// MinSamples is how many cold durations must be recorded for a tenant
	// before hedging arms (a delay derived from two samples is noise).
	MinSamples int
	// WindowSize bounds the duration ring (0 means 64).
	WindowSize int
	// Startup is the modeled cost of firing an attempt: a hedge whose
	// primary finishes within Startup of the hedge's launch is a cancel —
	// only the startup cost is wasted, not a full attempt.
	Startup Micros
}

func (s HedgeSpec) enabled() bool { return s.Quantile > 0 }

func (s HedgeSpec) window() int {
	if s.WindowSize > 0 {
		return s.WindowSize
	}
	return 64
}

// HedgeOutcome labels what happened to a fired hedge.
type HedgeOutcome string

const (
	// hedgeCancel: the primary finished within Startup of the hedge
	// launch; the hedge was cancelled before doing real work.
	hedgeCancel HedgeOutcome = "cancel"
	// hedgeWin: the hedge finished first; its result was served and the
	// primary's remaining work was abandoned.
	hedgeWin HedgeOutcome = "win"
	// hedgeLoss: the primary finished first; the hedge's partial work was
	// wasted.
	hedgeLoss HedgeOutcome = "loss"
)

// hedger is one tenant's hedge state: a ring of recent cold primary
// durations from which the delay quantile is derived. Not concurrency-
// safe: the wrapper's mutex guards it.
type hedger struct {
	spec HedgeSpec
	ring []Micros
	head int
}

// record folds one cold primary duration into the ring.
func (h *hedger) record(d Micros) {
	if !h.spec.enabled() {
		return
	}
	w := h.spec.window()
	if len(h.ring) < w {
		h.ring = append(h.ring, d)
		return
	}
	h.ring[h.head] = d
	h.head = (h.head + 1) % w
}

// delay returns the armed hedge delay, or ok=false while unarmed.
func (h *hedger) delay() (Micros, bool) {
	if !h.spec.enabled() || len(h.ring) < h.spec.MinSamples || len(h.ring) == 0 {
		return 0, false
	}
	s := append([]Micros(nil), h.ring...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(h.spec.Quantile * float64(len(s)-1)) // >= 0: enabled means Quantile > 0
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx], true
}

// hedgeResult is the settled accounting of one (possibly hedged) cold
// optimization, all in modeled Micros.
type hedgeResult struct {
	outcome HedgeOutcome
	fired   bool
	served  Micros // request latency as the caller experienced it
	charged Micros // total work billed to the tenant's budget
	wasted  Micros // the loser's abandoned share of charged
}

// resolve races a primary of duration primary against a hedge launched at
// delay with duration hedge (both already jittered):
//
//   - no hedge armed, or primary <= delay: the hedge never fires.
//   - primary in (delay, delay+Startup]: cancel — served by the primary,
//     the hedge wasted only its startup cost.
//   - delay+hedge < primary: win — served at delay+hedge; the primary's
//     work up to that instant is abandoned.
//   - otherwise: loss — served by the primary; the hedge's work up to
//     that instant is abandoned.
func (h *hedger) resolve(primary, hedge Micros) hedgeResult {
	d, armed := h.delay()
	if !armed || primary <= d {
		return hedgeResult{served: primary, charged: primary}
	}
	start := h.spec.Startup
	switch {
	case primary <= d+start:
		return hedgeResult{
			outcome: hedgeCancel, fired: true,
			served: primary, charged: primary + start, wasted: start,
		}
	case d+hedge < primary:
		served := d + hedge
		return hedgeResult{
			outcome: hedgeWin, fired: true,
			served: served, charged: hedge + served, wasted: served,
		}
	default:
		wasted := primary - d
		return hedgeResult{
			outcome: hedgeLoss, fired: true,
			served: primary, charged: primary + wasted, wasted: wasted,
		}
	}
}

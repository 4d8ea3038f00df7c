package resilience

// BreakerSpec is a per-tenant circuit breaker over drift churn. A churn
// event is a request whose cached plan was worthless: a cold plan-cache
// miss, or a rank flip (the served plan's signature differs from the last
// plan served for the same query). When the churn rate over a sliding
// count window crosses Threshold the breaker opens: the tenant is served
// degraded-but-cheap plans (wide-band cached or modal-point LSC) without
// touching the cold path until a cooldown passes, then a single half-open
// trial request re-optimizes for real — a clean trial closes the breaker,
// a churning one reopens it. The zero value disables breaking.
type BreakerSpec struct {
	// Window is the sliding churn window length in requests. 0 disables.
	Window int
	// Threshold is the churn fraction that trips the breaker (e.g. 0.5).
	Threshold float64
	// MinSamples gates tripping until the window holds at least this many
	// observations (0 means Window).
	MinSamples int
	// Cooldown is the open-state dwell in virtual Micros before a
	// half-open trial is allowed.
	Cooldown Micros
}

func (s BreakerSpec) enabled() bool { return s.Window > 0 }

// breakerState is the classic three-state machine.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is one tenant's instance. Not concurrency-safe: the wrapper's
// mutex guards it.
type breaker struct {
	spec     BreakerSpec
	window   []bool // ring of churn observations
	head     int
	filled   int
	churned  int
	state    breakerState
	openedAt Micros
}

func (b *breaker) minSamples() int {
	if b.spec.MinSamples > 0 {
		return b.spec.MinSamples
	}
	return b.spec.Window
}

// phase resolves the effective state at virtual time now, promoting an
// open breaker whose cooldown has elapsed to half-open. Time regressions
// (a fresh load level) are treated as an elapsed cooldown: the new level
// should not inherit an unservable open window of unknowable remaining
// length.
func (b *breaker) phase(now Micros) breakerState {
	if !b.spec.enabled() {
		return breakerClosed
	}
	if b.state == breakerOpen && (now < b.openedAt || now-b.openedAt >= b.spec.Cooldown) {
		b.state = breakerHalfOpen
	}
	return b.state
}

// record folds one churn observation into the window (closed state only —
// the wrapper never records while open, so degraded serving cannot keep a
// breaker open forever) and trips when the windowed rate crosses the
// threshold.
func (b *breaker) record(churn bool, now Micros) {
	if !b.spec.enabled() || b.state != breakerClosed {
		return
	}
	if len(b.window) == 0 {
		b.window = make([]bool, b.spec.Window)
	}
	if b.filled == len(b.window) {
		if b.window[b.head] {
			b.churned--
		}
	} else {
		b.filled++
	}
	b.window[b.head] = churn
	if churn {
		b.churned++
	}
	b.head = (b.head + 1) % len(b.window)
	if b.filled >= b.minSamples() &&
		float64(b.churned) >= b.spec.Threshold*float64(b.filled) {
		b.state = breakerOpen
		b.openedAt = now
	}
}

// trialResult settles a half-open trial: clean closes the breaker and
// resets the window, churn reopens it for another cooldown.
func (b *breaker) trialResult(churn bool, now Micros) {
	if b.state != breakerHalfOpen {
		return
	}
	if churn {
		b.state = breakerOpen
		b.openedAt = now
		return
	}
	b.state = breakerClosed
	b.head, b.filled, b.churned = 0, 0, 0
}

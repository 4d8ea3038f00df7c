package resilience

// BudgetSpec is a per-tenant optimization budget: a token bucket denominated
// in modeled optimize-work microseconds. Cold-path plan computation is
// admitted only while the tenant holds at least a cold optimization's base
// cost in tokens; over-budget tenants are served the nearest banded cached
// plan (or a degraded plan) instead, so one drift-churning tenant cannot
// starve the others of optimizer compute. The zero value disables
// budgeting (every request admitted).
type BudgetSpec struct {
	// Capacity is the bucket size in Micros of modeled work. 0 disables.
	Capacity Micros
	// RefillPerSec is the token refill rate in Micros of modeled work per
	// virtual second — i.e. RefillPerSec/1e6 is the fraction of one
	// optimizer-core's time this tenant may consume at steady state.
	RefillPerSec Micros
}

func (s BudgetSpec) enabled() bool { return s.Capacity > 0 }

// budget is one tenant's bucket. Not concurrency-safe: the wrapper's mutex
// guards it.
type budget struct {
	spec   BudgetSpec
	tokens Micros
	carry  Micros // accrued fraction of a token, in millionths
	last   Micros // virtual time of the last refill
	primed bool
}

// refill accrues tokens up to capacity. Called with the wrapper lock held
// before every admission check and every charge. Accrual is exact: the
// sub-token remainder of one refill carries into the next, and a gap long
// enough to fill the bucket fills it without multiplying, so no caller
// timestamp can overflow the accrual.
func (b *budget) refill(now Micros) {
	if !b.spec.enabled() {
		return
	}
	if !b.primed {
		// A tenant's first request finds a full bucket at its own arrival
		// time, wherever in the run that falls.
		b.tokens, b.last, b.primed = b.spec.Capacity, now, true
		return
	}
	// now <= b.last: time went backwards (new load level) — keep tokens,
	// restart accrual from the new time.
	gap := now - b.last
	b.last = now
	if gap <= 0 || b.spec.RefillPerSec <= 0 {
		return
	}
	need := (b.spec.Capacity-b.tokens)*1e6 - b.carry
	if gap > need/b.spec.RefillPerSec {
		b.tokens, b.carry = b.spec.Capacity, 0
		return
	}
	acc := gap*b.spec.RefillPerSec + b.carry
	b.tokens += acc / 1e6
	b.carry = acc % 1e6
}

// admit reports whether a cold optimization costing at least base may
// start. Admission does not reserve: the actual modeled work is charged
// when it settles, and the bucket may run into debt on a burst — debt
// just lengthens the deny window, which is the behavior we want under
// overload.
func (b *budget) admit(base Micros) bool {
	if !b.spec.enabled() {
		return true
	}
	return b.tokens >= base
}

// charge settles work micros against the bucket.
func (b *budget) charge(work Micros) {
	if !b.spec.enabled() || work <= 0 {
		return
	}
	b.tokens -= work
}

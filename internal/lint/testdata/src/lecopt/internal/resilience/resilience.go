// Package resilience is a leclint fixture mirroring the real resilience
// layer's circuit-breaker logic: the decision path must run on the
// injected virtual clock, so any wall-clock seed (or global-source draw)
// in breaker code is a seeded violation the determinism analyzer must
// catch. True negatives show the blessed patterns: an injected clock and
// an explicitly seeded jitter source.
package resilience

import (
	"math/rand"
	"time"
)

// breaker is a stripped-down copy of the real count-window breaker.
type breaker struct {
	openedAt int64
	cooldown int64
	jitter   *rand.Rand
}

// newBreakerWallClock seeds the cooldown jitter from time.Now: the exact
// violation that would make two runs of one request sequence diverge.
func newBreakerWallClock(cooldown int64) *breaker {
	return &breaker{
		cooldown: cooldown,
		jitter:   rand.New(rand.NewSource(time.Now().UnixNano())), // want `wall-clock seed`
	}
}

// newBreakerSeeded is the canonical fix: the caller supplies the seed.
// True negative.
func newBreakerSeeded(cooldown, seed int64) *breaker {
	return &breaker{
		cooldown: cooldown,
		jitter:   rand.New(rand.NewSource(seed)),
	}
}

// tripJitterGlobal draws trip jitter from the process-global source:
// forbidden.
func tripJitterGlobal(cooldown int64) int64 {
	return cooldown + rand.Int63n(cooldown) // want `process-global source`
}

// shouldHalfOpen decides on an injected virtual timestamp, never the wall
// clock. True negative.
func (b *breaker) shouldHalfOpen(now int64) bool {
	return now-b.openedAt >= b.cooldown+b.jitter.Int63n(b.cooldown+1)
}

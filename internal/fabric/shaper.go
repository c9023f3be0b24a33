package fabric

import (
	"fmt"
	"math"

	"tcn/internal/digest"
	"tcn/internal/invariant"
	"tcn/internal/sim"
)

// TokenBucket is the paper's §5 rate limiter, the optional shaper stage
// of a Port (see package qdisc): tokens accrue at Rate and each
// transmission spends the packet's wire size; Burst bounds accumulation.
type TokenBucket struct {
	// Rate is the token fill rate in bits per second.
	Rate Rate
	// Burst is the bucket depth in bytes (paper: 2.5 KB ≈ 1.67 MTU).
	Burst int

	tokens float64 // bytes
	last   sim.Time
}

// NewTokenBucket returns a full bucket.
func NewTokenBucket(rate Rate, burst int) *TokenBucket {
	if rate <= 0 || burst <= 0 {
		panic(fmt.Sprintf("fabric: invalid token bucket rate=%v burst=%d", rate, burst))
	}
	return &TokenBucket{Rate: rate, Burst: burst, tokens: float64(burst)}
}

// refill accrues tokens up to the burst cap.
func (tb *TokenBucket) refill(now sim.Time) {
	if now > tb.last {
		tb.tokens, tb.last = tb.Level(now), now
	}
}

// Take attempts to spend size bytes at time now. On failure it reports
// how long to wait until enough tokens accrue, rounded up to the next
// nanosecond so that a retry after wait succeeds: a truncated wait lands
// just short of the tokens and costs a second, 1–2 ns retry per stall.
func (tb *TokenBucket) Take(now sim.Time, size int) (ok bool, wait sim.Time) {
	tb.refill(now)
	if invariant.Enabled {
		invariant.Checkf(tb.tokens >= 0 && tb.tokens <= float64(tb.Burst),
			"fabric: token count %f outside [0, burst %d] after refill", tb.tokens, tb.Burst)
	}
	if tb.tokens >= float64(size) {
		tb.tokens -= float64(size)
		if invariant.Enabled {
			invariant.Checkf(tb.tokens >= 0,
				"fabric: token bucket went negative (%f) spending %d bytes", tb.tokens, size)
		}
		return true, 0
	}
	missing := float64(size) - tb.tokens
	wait = sim.Time(math.Ceil(missing * 8 / float64(tb.Rate) * float64(sim.Second)))
	if wait < 1 {
		wait = 1
	}
	return false, wait
}

// Level computes the token count in bytes at now WITHOUT advancing the
// bucket state. Observers must use it rather than a refill: an early
// refill changes the floating-point rounding of later ones, so an
// observed run would diverge from a bare one.
func (tb *TokenBucket) Level(now sim.Time) float64 {
	t := tb.tokens
	if now > tb.last {
		t += float64(tb.Rate) / 8 * (now - tb.last).Seconds()
		if t > float64(tb.Burst) {
			t = float64(tb.Burst)
		}
	}
	return t
}

// DigestState folds the shaper state into a run fingerprint: the stored
// token count and the last refill instant. The stored fields — not a
// refilled projection — are digested, because digesting must not perturb
// the bucket.
func (tb *TokenBucket) DigestState(h *digest.Hash) {
	h.WriteFloat64(tb.tokens)
	h.WriteInt64(int64(tb.last))
}

package sim

import (
	"math/rand"

	"tcn/internal/digest"
)

// Rand wraps math/rand with the distributions the simulator needs. All
// randomness in an experiment must flow through one seeded Rand so runs are
// reproducible.
//
// math/rand exposes no way to read its internal state, so Rand digests as
// (seed, draw count) instead: two streams with the same seed that have
// served the same number of draws are in identical states. The draw counter
// is maintained by shadowing the sampling methods the simulator uses —
// adding a new sampling call site must go through one of these shadows (or
// add a new one), or the fingerprint goes blind to it.
type Rand struct {
	*rand.Rand
	seed  int64
	draws uint64
}

// NewRand returns a deterministic source seeded with seed.
func NewRand(seed int64) *Rand {
	return &Rand{Rand: rand.New(rand.NewSource(seed)), seed: seed}
}

// Intn counts the draw, then defers to math/rand.
func (r *Rand) Intn(n int) int {
	r.draws++
	return r.Rand.Intn(n)
}

// Float64 counts the draw, then defers to math/rand.
func (r *Rand) Float64() float64 {
	r.draws++
	return r.Rand.Float64()
}

// ExpFloat64 counts the draw, then defers to math/rand.
func (r *Rand) ExpFloat64() float64 {
	r.draws++
	return r.Rand.ExpFloat64()
}

// Shuffle counts as one draw (the permutation is one decision, however
// many swaps it makes), then defers to math/rand.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	r.draws++
	r.Rand.Shuffle(n, swap)
}

// DigestState folds the stream identity into a run fingerprint: the seed
// and the cumulative draw count. A divergence in the "rand" component
// means the two runs consumed randomness differently — almost always the
// earliest observable symptom of a behavioral divergence upstream of it.
func (r *Rand) DigestState(h *digest.Hash) {
	h.WriteInt64(r.seed)
	h.WriteUint64(r.draws)
}

// Exp returns an exponentially distributed duration with the given mean,
// clamped below at 1ns so event ordering stays strict.
func (r *Rand) Exp(mean Time) Time {
	d := Time(r.ExpFloat64() * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}

// Range returns a uniformly distributed integer in [lo, hi].
func (r *Rand) Range(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + r.Intn(hi-lo+1)
}

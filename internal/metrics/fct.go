// Package metrics collects the quantities the paper reports: flow
// completion time statistics broken down by the paper's size buckets,
// per-service goodput time series, buffer occupancy traces, and generic
// percentile helpers.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"tcn/internal/digest"
	"tcn/internal/sim"
)

// The paper's flow size buckets (§6, "Performance metric").
const (
	// SmallFlowMax bounds small flows: (0, 100 KB].
	SmallFlowMax = 100_000
	// LargeFlowMin bounds large flows: (10 MB, ∞).
	LargeFlowMin = 10_000_000
)

// FlowRecord is one completed flow.
type FlowRecord struct {
	Size     int64
	FCT      sim.Time
	Class    uint8
	Timeouts int
}

// FCTCollector accumulates completed flows. It has two modes:
//
//   - Exact (NewFCTCollector): every FlowRecord is retained and Stats
//     sorts the small-flow sample for an exact nearest-rank P99. Memory
//     grows with the flow count; the determinism harness uses this mode
//     to compare per-flow records across runs.
//   - Streaming (NewStreamingFCTCollector): records are folded into
//     running integer sums plus a t-digest of small-flow FCTs, so memory
//     stays bounded at millions of flows. Averages and counts are
//     bit-exact (int64 sums are commutative); only P99Small becomes a
//     digest estimate, within the quantile error documented on TDigest.
type FCTCollector struct {
	records   []FlowRecord
	streaming bool

	flows                              int
	sumAll, sumSmall, sumMid, sumLarge sim.Time
	smallFlows, midFlows, largeFlows   int
	timeouts, timeoutsSmall            int
	small                              *TDigest
}

// NewFCTCollector returns an empty collector in exact mode.
func NewFCTCollector() *FCTCollector { return &FCTCollector{} }

// NewStreamingFCTCollector returns a collector that aggregates into
// running sums and a small-flow t-digest instead of retaining records.
func NewStreamingFCTCollector(compression float64) *FCTCollector {
	return &FCTCollector{streaming: true, small: NewTDigest(compression)}
}

// Record adds one completed flow. The running integer tallies are kept in
// both modes (exact-mode Stats still recomputes from the records; the
// tallies exist so the run fingerprint reacts to every completion), but
// the t-digest only accrues in streaming mode.
func (c *FCTCollector) Record(r FlowRecord) {
	if r.FCT <= 0 {
		panic(fmt.Sprintf("metrics: non-positive FCT %v for flow of %d bytes", r.FCT, r.Size))
	}
	c.flows++
	c.sumAll += r.FCT
	c.timeouts += r.Timeouts
	switch {
	case r.Size <= SmallFlowMax:
		c.smallFlows++
		c.sumSmall += r.FCT
		c.timeoutsSmall += r.Timeouts
		if c.streaming {
			c.small.Add(float64(r.FCT))
		}
	case r.Size > LargeFlowMin:
		c.largeFlows++
		c.sumLarge += r.FCT
	default:
		c.midFlows++
		c.sumMid += r.FCT
	}
	if !c.streaming {
		c.records = append(c.records, r) //tcnlint:hotpath exact mode trades one append per completed flow for exact percentiles; streaming mode is the alloc-free path
	}
}

// Count returns the number of recorded flows.
func (c *FCTCollector) Count() int {
	if c.streaming {
		return c.flows
	}
	return len(c.records)
}

// Records returns the raw records (not a copy; do not mutate). Nil in
// streaming mode.
func (c *FCTCollector) Records() []FlowRecord { return c.records }

// SmallDigest returns the small-flow FCT t-digest in streaming mode, nil
// otherwise. The digest is single-owner like the collector; aggregate
// finished digests across cells with MergeAll.
func (c *FCTCollector) SmallDigest() *TDigest { return c.small }

// DigestState folds the collector into a run fingerprint: the flow and
// timeout tallies, the exact integer sums, the retained record count
// (exact mode), and the small-flow sketch (streaming mode). A divergence
// here means the two runs completed different flows — or the same flows
// at different times.
func (c *FCTCollector) DigestState(h *digest.Hash) {
	h.WriteBool(c.streaming)
	h.WriteInt(c.flows)
	h.WriteInt(len(c.records))
	h.WriteInt64(int64(c.sumAll))
	h.WriteInt64(int64(c.sumSmall))
	h.WriteInt64(int64(c.sumMid))
	h.WriteInt64(int64(c.sumLarge))
	h.WriteInt(c.smallFlows)
	h.WriteInt(c.midFlows)
	h.WriteInt(c.largeFlows)
	h.WriteInt(c.timeouts)
	h.WriteInt(c.timeoutsSmall)
	if c.small != nil {
		h.WriteBool(true)
		c.small.DigestState(h)
	} else {
		h.WriteBool(false)
	}
}

// FCTStats is the paper's reporting row: average FCT over all flows,
// average and 99th percentile for small flows, and average for large
// flows, plus the timeout counts §6.2.1 cites.
type FCTStats struct {
	Flows int

	AvgAll   sim.Time
	AvgSmall sim.Time
	P99Small sim.Time
	AvgMid   sim.Time
	AvgLarge sim.Time

	SmallFlows, MidFlows, LargeFlows int
	Timeouts                         int
	TimeoutsSmall                    int
}

// Stats computes the summary over all recorded flows.
func (c *FCTCollector) Stats() FCTStats {
	if c.streaming {
		return c.streamingStats()
	}
	var st FCTStats
	st.Flows = len(c.records)
	var sumAll, sumSmall, sumMid, sumLarge sim.Time
	var small []sim.Time
	for _, r := range c.records {
		sumAll += r.FCT
		st.Timeouts += r.Timeouts
		switch {
		case r.Size <= SmallFlowMax:
			st.SmallFlows++
			sumSmall += r.FCT
			small = append(small, r.FCT)
			st.TimeoutsSmall += r.Timeouts
		case r.Size > LargeFlowMin:
			st.LargeFlows++
			sumLarge += r.FCT
		default:
			st.MidFlows++
			sumMid += r.FCT
		}
	}
	if st.Flows > 0 {
		st.AvgAll = sumAll / sim.Time(st.Flows)
	}
	if st.SmallFlows > 0 {
		st.AvgSmall = sumSmall / sim.Time(st.SmallFlows)
		st.P99Small = PercentileTimes(small, 0.99)
	}
	if st.MidFlows > 0 {
		st.AvgMid = sumMid / sim.Time(st.MidFlows)
	}
	if st.LargeFlows > 0 {
		st.AvgLarge = sumLarge / sim.Time(st.LargeFlows)
	}
	return st
}

// streamingStats assembles FCTStats from the running sums. Every field
// except P99Small is computed from exact integer accumulators and so
// matches exact mode bit-for-bit; P99Small interpolates the digest.
func (c *FCTCollector) streamingStats() FCTStats {
	st := FCTStats{
		Flows:         c.flows,
		SmallFlows:    c.smallFlows,
		MidFlows:      c.midFlows,
		LargeFlows:    c.largeFlows,
		Timeouts:      c.timeouts,
		TimeoutsSmall: c.timeoutsSmall,
	}
	if st.Flows > 0 {
		st.AvgAll = c.sumAll / sim.Time(st.Flows)
	}
	if st.SmallFlows > 0 {
		st.AvgSmall = c.sumSmall / sim.Time(st.SmallFlows)
		st.P99Small = sim.Time(math.Round(c.small.Quantile(0.99)))
	}
	if st.MidFlows > 0 {
		st.AvgMid = c.sumMid / sim.Time(st.MidFlows)
	}
	if st.LargeFlows > 0 {
		st.AvgLarge = c.sumLarge / sim.Time(st.LargeFlows)
	}
	return st
}

// Normalize divides each FCT statistic by the corresponding one in base,
// yielding the paper's "normalized to TCN" presentation. Zero baselines
// normalize to zero.
func (s FCTStats) Normalize(base FCTStats) NormalizedFCT {
	div := func(a, b sim.Time) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	return NormalizedFCT{
		AvgAll:   div(s.AvgAll, base.AvgAll),
		AvgSmall: div(s.AvgSmall, base.AvgSmall),
		P99Small: div(s.P99Small, base.P99Small),
		AvgLarge: div(s.AvgLarge, base.AvgLarge),
	}
}

// NormalizedFCT is an FCT row normalized to a baseline scheme.
type NormalizedFCT struct {
	AvgAll, AvgSmall, P99Small, AvgLarge float64
}

// PercentileTimes returns the q-quantile (0..1) of a sample of times using
// nearest-rank on the sorted sample. It copies the input.
func PercentileTimes(xs []sim.Time, q float64) sim.Time {
	if len(xs) == 0 {
		return 0
	}
	s := make([]sim.Time, len(xs))
	copy(s, xs)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)-1))
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

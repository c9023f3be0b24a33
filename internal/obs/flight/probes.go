package flight

import (
	"fmt"

	"tcn/internal/core"
	"tcn/internal/fabric"
	"tcn/internal/pkt"
	"tcn/internal/qdisc"
	"tcn/internal/sim"
)

// Probe attachment for the two pipeline implementations, fabric.Port and
// qdisc.Qdisc. Series names extend the registry's port convention
// ("<prefix>.q<i>.<metric>" where per-queue, "<prefix>.<metric>" where
// per-port) so CSV exports line up with /metrics labels.
//
// All probes are read-only by construction: they consult queue byte
// counts, counter values, the shaper's non-mutating Level, and each
// marker's side-effect-free MarkProb — an instrumented run stays
// bit-identical to a bare one.

// AttachPortProbes registers the standard periodic probes on a fabric
// port under prefix, polled at the recorder's default period:
//
//	<prefix>.q<i>.depth_bytes   per-queue occupancy
//	<prefix>.q<i>.mark_prob     instantaneous marking probability (if the
//	                            marker implements core.MarkProber)
//	<prefix>.buffer_bytes       shared buffer pool occupancy
//	<prefix>.throughput_gbps    transmit rate over the last period
//	<prefix>.mark_rate_pps      CE marks per second over the last period
//	                            (if the marker implements core.MarkCounter)
func AttachPortProbes(rec *Recorder, prefix string, pt *fabric.Port) {
	eng := pt.Engine()
	for i := 0; i < pt.NumQueues(); i++ {
		qi := i
		rec.Probe(eng, fmt.Sprintf("%s.q%d.depth_bytes", prefix, qi), 0,
			func(sim.Time) float64 { return float64(pt.QueueBytes(qi)) })
		if prober, ok := pt.Marker().(core.MarkProber); ok {
			rec.Probe(eng, fmt.Sprintf("%s.q%d.mark_prob", prefix, qi), 0,
				func(now sim.Time) float64 {
					var sojourn sim.Time
					if head := pt.Buffer().Head(qi); head != nil {
						sojourn = head.Sojourn(now)
					}
					return prober.MarkProb(now, qi, sojourn, pt)
				})
		}
	}
	rec.Probe(eng, prefix+".buffer_bytes", 0,
		func(sim.Time) float64 { return float64(pt.PortBytes()) })
	rateProbe(rec, eng, prefix+".throughput_gbps", 8e-9, func() int64 {
		var total int64
		for _, b := range pt.TxBytes {
			total += b
		}
		return total
	})
	if mc, ok := pt.Marker().(core.MarkCounter); ok {
		rateProbe(rec, eng, prefix+".mark_rate_pps", 1, mc.MarkCount)
	}
}

// AttachQdiscProbes registers the periodic probes on a software qdisc
// under prefix: per-queue depth, shared buffer occupancy, and the token
// bucket level (via the non-mutating Level, so probing cannot change the
// shaper's floating-point trajectory).
func AttachQdiscProbes(rec *Recorder, prefix string, q *qdisc.Qdisc) {
	eng := q.Engine()
	for i := 0; i < q.NumQueues(); i++ {
		qi := i
		rec.Probe(eng, fmt.Sprintf("%s.q%d.depth_bytes", prefix, qi), 0,
			func(sim.Time) float64 { return float64(q.QueueBytes(qi)) })
	}
	rec.Probe(eng, prefix+".buffer_bytes", 0,
		func(sim.Time) float64 { return float64(q.PortBytes()) })
	rec.Probe(eng, prefix+".tokens_bytes", 0,
		func(now sim.Time) float64 { return q.Bucket().Level(now) })
}

// rateProbe registers a probe, polled at the recorder's default period,
// that turns a monotonic counter into a per-second rate: each sample is
// the counter delta over the last period, scaled by unit (8e-9 turns
// bytes/s into Gbit/s; 1 leaves events/s). It reads the counter on every
// tick, kept or not, so a kept sample never spans several periods.
func rateProbe(rec *Recorder, eng *sim.Engine, name string, unit float64, counter func() int64) {
	var last int64
	perSec := 1 / rec.cfg.Period.Seconds()
	rec.probe(eng, 0, tickProbe{s: rec.Series(name), everyTick: true, fn: func(sim.Time) float64 {
		cur := counter()
		d := cur - last
		last = cur
		return float64(d) * perSec * unit
	}})
}

// AttachPortSpans wires the recorder's flow-span tracker into a fabric
// port's lifecycle hooks, chaining any hooks already installed (the
// trace.Tracer pattern) so span tracking composes with tracing.
func AttachPortSpans(rec *Recorder, pt *fabric.Port) {
	spans := rec.Spans()
	prevEnq := pt.OnEnqueue
	pt.OnEnqueue = func(now sim.Time, qi int, p *pkt.Packet) {
		if prevEnq != nil {
			prevEnq(now, qi, p)
		}
		spans.Enqueue(now, p)
	}
	prevTx := pt.OnTransmit
	pt.OnTransmit = func(now sim.Time, qi int, p *pkt.Packet) {
		if prevTx != nil {
			prevTx(now, qi, p)
		}
		spans.Transmit(now, p, p.Sojourn(now), p.ECN == pkt.CE)
	}
	prevDrop := pt.OnDrop
	pt.OnDrop = func(now sim.Time, qi int, p *pkt.Packet) {
		if prevDrop != nil {
			prevDrop(now, qi, p)
		}
		spans.Drop(now, p)
	}
}

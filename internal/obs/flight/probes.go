package flight

import (
	"fmt"

	"tcn/internal/core"
	"tcn/internal/fabric"
	"tcn/internal/pkt"
	"tcn/internal/sim"
)

// Probe attachment for fabric.Port. Series names extend the registry's
// port convention ("<prefix>.q<i>.<metric>" where per-queue,
// "<prefix>.<metric>" where per-port) so CSV exports line up with
// /metrics labels.
//
// All probes are read-only by construction: they consult queue byte
// counts, counter values, and each marker's side-effect-free MarkProb —
// an instrumented run stays bit-identical to a bare one.

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

// AttachPortSpans feeds a fabric port's packet events into the
// recorder's flow-span tracker, as one observer on the port.
func AttachPortSpans(rec *Recorder, pt *fabric.Port) {
	pt.Observe(spanPort{rec.Spans()})
}

// spanPort is the span tracker's observer on one port.
type spanPort struct{ spans *SpanTracker }

func (sp spanPort) Enqueue(now sim.Time, _ int, p *pkt.Packet) { sp.spans.Enqueue(now, p) }

func (sp spanPort) Verdict(now sim.Time, _ int, p *pkt.Packet, v *core.Verdict) {
	if v.Dropped {
		sp.spans.Drop(now, p)
	}
}

func (sp spanPort) Transmit(now sim.Time, _ int, p *pkt.Packet) {
	sp.spans.Transmit(now, p, p.Sojourn(now), p.ECN == pkt.CE)
}

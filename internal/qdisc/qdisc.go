// Package qdisc reassembles the paper's software prototype (§5) as a
// library: the five-stage packet pipeline of the Linux queueing-discipline
// kernel module — DSCP classifier, enqueue ECN marking, packet scheduler,
// token-bucket rate limiter, dequeue ECN marking — running on the
// simulator clock instead of kernel time.
//
// The pipeline is fabric.Port's, with its shaper stage set to the
// prototype's: egress is shaped at 99.5 % of NIC capacity with a ~1.67-MTU
// bucket so queueing stays inside the qdisc where the marker can see it,
// rather than draining into NIC ring buffers (§5, "Rate Limiter").
package qdisc

import (
	"tcn/internal/core"
	"tcn/internal/fabric"
	"tcn/internal/pkt"
	"tcn/internal/sched"
	"tcn/internal/sim"
)

// The prototype's shaper: 99.5 % of line rate, 2.5 KB deep.
const (
	ShapeFraction = 0.995
	Burst         = 2500
)

// Config assembles a Qdisc.
type Config struct {
	// Queues is the number of per-class FIFO queues; packets are
	// classified on DSCP.
	Queues int
	// BufferBytes is the shared buffer pool (0 = unlimited).
	BufferBytes int
	// Scheduler arbitrates the queues; nil = FIFO.
	Scheduler sched.Scheduler
	// Marker is the ECN scheme; nil = none.
	Marker core.Marker
	// LineRate is the NIC speed; the shaper runs at ShapeFraction of it.
	LineRate fabric.Rate
	// Transmit receives packets leaving the qdisc (the "NIC driver").
	Transmit func(now sim.Time, p *pkt.Packet)
}

// Qdisc is the assembled pipeline: a shaped fabric.Port with no peer and
// no propagation delay, whose departures go to Config.Transmit.
type Qdisc struct {
	*fabric.Port
}

// New builds a qdisc.
func New(eng *sim.Engine, cfg Config) *Qdisc {
	if cfg.LineRate <= 0 {
		panic("qdisc: need a line rate")
	}
	if cfg.Transmit == nil {
		panic("qdisc: need a transmit function")
	}
	pt := fabric.NewPort(eng, fabric.PortConfig{
		Rate:        cfg.LineRate,
		Queues:      cfg.Queues,
		BufferBytes: cfg.BufferBytes,
		Scheduler:   cfg.Scheduler,
		Marker:      cfg.Marker,
		Shaper:      fabric.NewTokenBucket(fabric.Rate(float64(cfg.LineRate)*ShapeFraction), Burst),
	}, nil)
	pt.Observe(transmitter(cfg.Transmit))
	return &Qdisc{pt}
}

// Enqueue admits a packet from the IP layer and reports whether the
// buffer took it.
func (q *Qdisc) Enqueue(p *pkt.Packet) bool { return q.Send(p) }

// transmitter hands every departing packet to the NIC driver.
type transmitter func(now sim.Time, p *pkt.Packet)

func (transmitter) Enqueue(sim.Time, int, *pkt.Packet)                {}
func (transmitter) Verdict(sim.Time, int, *pkt.Packet, *core.Verdict) {}
func (t transmitter) Transmit(now sim.Time, _ int, p *pkt.Packet)     { t(now, p) }

package sched

import (
	"fmt"

	"tcn/internal/pkt"
	"tcn/internal/sim"
)

// SPOver is the hierarchical scheduler the paper configures for traffic
// prioritization (§6.1.3, §6.2): the first High queues are strict
// priorities (queue 0 highest) and the remaining queues are arbitrated by
// an inner discipline (WFQ or DWRR), served only when every strict queue is
// empty.
type SPOver struct {
	v     View
	high  int
	inner Scheduler
	name  string
}

// NewSPOver returns a composite with queues [0,high) strict and the rest
// delegated to inner. inner must be configured for NumQueues-high queues.
func NewSPOver(high int, inner Scheduler) *SPOver {
	if high < 1 {
		panic(fmt.Sprintf("sched: SPOver needs at least one strict queue, got %d", high))
	}
	return &SPOver{high: high, inner: inner, name: "SP/" + inner.Name()}
}

// Name implements Scheduler.
func (s *SPOver) Name() string { return s.name }

// Bind implements Scheduler.
func (s *SPOver) Bind(v View) {
	if v.NumQueues() <= s.high {
		panic(fmt.Sprintf("sched: SPOver with %d strict queues needs more than %d queues",
			s.high, s.high))
	}
	s.v = v
	s.inner.Bind(&offsetView{v: v, off: s.high})
}

// OnEnqueue implements Scheduler.
func (s *SPOver) OnEnqueue(now sim.Time, i int, p *pkt.Packet) {
	if i >= s.high {
		s.inner.OnEnqueue(now, i-s.high, p)
	}
}

// Next implements Scheduler.
func (s *SPOver) Next(now sim.Time) int {
	for i := 0; i < s.high; i++ {
		if s.v.Len(i) > 0 {
			return i
		}
	}
	if i := s.inner.Next(now); i >= 0 {
		return i + s.high
	}
	return -1
}

// OnDequeue implements Scheduler.
func (s *SPOver) OnDequeue(now sim.Time, i int, p *pkt.Packet) {
	if i >= s.high {
		s.inner.OnDequeue(now, i-s.high, p)
	}
}

// HighQueues returns the number of strict-priority queues.
func (s *SPOver) HighQueues() int { return s.high }

// offsetView re-indexes a View so an inner scheduler sees queues
// [off, N) as [0, N-off).
type offsetView struct {
	v   View
	off int
}

func (o *offsetView) NumQueues() int         { return o.v.NumQueues() - o.off }
func (o *offsetView) Len(i int) int          { return o.v.Len(i + o.off) }
func (o *offsetView) Bytes(i int) int        { return o.v.Bytes(i + o.off) }
func (o *offsetView) Head(i int) *pkt.Packet { return o.v.Head(i + o.off) }

// RankFunc assigns a PIFO rank to the head packet of a queue; smaller ranks
// are served first. It may consult the packet and the current time.
type RankFunc func(now sim.Time, queue int, p *pkt.Packet) float64

// PIFO is a programmable scheduler in the spirit of push-in-first-out
// queues (Sivaraman et al., SIGCOMM 2016): an arbitrary rank function
// orders the head packets of the per-class queues and the smallest rank is
// served. Because ranks are computed rather than configured, PIFO stands in
// for the "arbitrary packet schedulers" TCN must support and MQ-ECN cannot.
type PIFO struct {
	v    View
	rank RankFunc
	seq  float64 // FIFO tie-break within a queue
}

// NewPIFO returns a PIFO scheduler using rank. A nil rank orders packets
// globally by arrival (a single logical FIFO across all queues).
func NewPIFO(rank RankFunc) *PIFO { return &PIFO{rank: rank} }

// Name implements Scheduler.
func (s *PIFO) Name() string { return "PIFO" }

// Bind implements Scheduler.
func (s *PIFO) Bind(v View) { s.v = v }

// OnEnqueue implements Scheduler: stamps the packet's rank at admission,
// the PIFO contract ("push in" with a rank, dequeue from the head).
func (s *PIFO) OnEnqueue(now sim.Time, i int, p *pkt.Packet) {
	s.seq++
	if s.rank == nil {
		p.SchedTag = s.seq
		return
	}
	// The arrival sequence breaks rank ties deterministically while
	// preserving FIFO order inside a rank level.
	p.SchedTag = s.rank(now, i, p)*1e9 + s.seq
}

// Next implements Scheduler.
func (s *PIFO) Next(sim.Time) int {
	best := -1
	var bestTag float64
	for i := 0; i < s.v.NumQueues(); i++ {
		if s.v.Len(i) == 0 {
			continue
		}
		tag := s.v.Head(i).SchedTag
		if best == -1 || tag < bestTag {
			bestTag = tag
			best = i
		}
	}
	return best
}

// OnDequeue implements Scheduler.
func (s *PIFO) OnDequeue(sim.Time, int, *pkt.Packet) {}

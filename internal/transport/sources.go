package transport

import (
	"fmt"
	"sort"

	"tcn/internal/fabric"
	"tcn/internal/pkt"
	"tcn/internal/sim"
)

// CBR is a constant-bit-rate source: it emits MSS-sized Not-ECT segments
// at a fixed application rate with no congestion control. Figure 5a's
// "500 Mbps TCP flow" is application-limited well below its strict-
// priority share, so its congestion control never engages; CBR models
// exactly that regime. Delivered bytes are observable through the stack's
// OnDeliver hook via a pseudo-flow.
type CBR struct {
	stack  *Stack
	flow   *Flow
	rate   fabric.Rate
	seg    int64
	off    int64
	stop   bool
	emitFn func() // stored pacing callback; rescheduling allocates nothing
}

// StartCBR begins a paced stream of the given application rate from
// src to dst in service class. It returns a handle whose Stop method ends
// the stream.
func (s *Stack) StartCBR(src, dst int, class uint8, rate fabric.Rate) *CBR {
	if rate <= 0 {
		panic(fmt.Sprintf("transport: CBR rate %v must be positive", rate))
	}
	f := &Flow{
		ID:    s.NewFlowID(),
		Src:   src,
		Dst:   dst,
		Size:  1 << 62, // endless
		Class: class,
		Tag:   StaticTag(class),
		Start: s.eng.Now(),
	}
	c := &CBR{stack: s, flow: f, rate: rate, seg: int64(s.cfg.MSS)}
	c.emitFn = c.emit
	// Register a counting receiver: the stream is unreliable, so every
	// arriving byte counts as delivered and no ACKs flow back.
	s.setReceiver(f.ID, newCountingReceiver(s, f))
	c.emit()
	return c
}

// Flow returns the pseudo-flow carrying the stream.
func (c *CBR) Flow() *Flow { return c.flow }

// Stop ends the stream.
func (c *CBR) Stop() { c.stop = true }

func (c *CBR) emit() {
	if c.stop {
		return
	}
	p := c.stack.pool.New(pkt.Packet{
		Flow:   c.flow.ID,
		Src:    c.flow.Src,
		Dst:    c.flow.Dst,
		Kind:   pkt.Data,
		Seq:    c.off,
		Len:    int(c.seg),
		Size:   int(c.seg) + pkt.HeaderSize,
		ECN:    c.stack.ecnCodepoint(),
		DSCP:   c.flow.Class,
		SentAt: c.stack.eng.Now(),
	})
	c.off += c.seg
	c.stack.send(c.flow.Src, p)
	// Pace the next segment so the payload rate matches.
	gap := c.rate.Serialize(int(c.seg) + pkt.HeaderSize)
	c.stack.eng.After(gap, c.emitFn)
}

// Pinger measures per-class RTT the way the paper does for Figure 5b:
// small probe packets through a chosen service queue, echoed back by the
// destination host, with every round trip recorded.
type Pinger struct {
	stack    *Stack
	flow     *Flow
	interval sim.Time
	size     int
	stop     bool
	seq      int64
	sent     map[int64]sim.Time
	probeFn  func() // stored rescheduling callback

	// Samples holds measured round-trip times in send order.
	Samples []sim.Time
}

// StartPinger begins probing from src to dst through service class every
// interval. Probes are 64-byte frames like ICMP echo.
func (s *Stack) StartPinger(src, dst int, class uint8, interval sim.Time) *Pinger {
	f := &Flow{
		ID:    s.NewFlowID(),
		Src:   src,
		Dst:   dst,
		Class: class,
		Start: s.eng.Now(),
	}
	pg := &Pinger{
		stack:    s,
		flow:     f,
		interval: interval,
		size:     64,
		sent:     make(map[int64]sim.Time),
	}
	pg.probeFn = pg.probe
	s.setPinger(f.ID, pg)
	pg.probe()
	return pg
}

// Stop ends probing.
func (pg *Pinger) Stop() { pg.stop = true }

func (pg *Pinger) probe() {
	if pg.stop {
		return
	}
	now := pg.stack.eng.Now()
	pg.seq++
	pg.sent[pg.seq] = now
	p := pg.stack.pool.New(pkt.Packet{
		Flow:   pg.flow.ID,
		Src:    pg.flow.Src,
		Dst:    pg.flow.Dst,
		Kind:   pkt.Ping,
		Seq:    pg.seq,
		Size:   pg.size,
		DSCP:   pg.flow.Class,
		SentAt: now,
	})
	pg.stack.send(pg.flow.Src, p)
	pg.stack.eng.After(pg.interval, pg.probeFn)
}

func (pg *Pinger) onPong(p *pkt.Packet) {
	if t0, ok := pg.sent[p.Seq]; ok {
		delete(pg.sent, p.Seq)
		pg.Samples = append(pg.Samples, pg.stack.eng.Now()-t0) //tcnlint:hotpath one RTT sample per probe interval; probes are sparse by construction
	}
}

// Percentile returns the q-quantile (0..1) of the collected samples.
func (pg *Pinger) Percentile(q float64) sim.Time {
	if len(pg.Samples) == 0 {
		return 0
	}
	s := make([]sim.Time, len(pg.Samples))
	copy(s, pg.Samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)-1))
	return s[i]
}

// Mean returns the average of the collected samples.
func (pg *Pinger) Mean() sim.Time {
	if len(pg.Samples) == 0 {
		return 0
	}
	var sum sim.Time
	for _, v := range pg.Samples {
		sum += v
	}
	return sum / sim.Time(len(pg.Samples))
}

// echoPing bounces a probe back to its source through the same class.
func (s *Stack) echoPing(p *pkt.Packet) {
	pong := s.pool.New(pkt.Packet{
		Flow:   p.Flow,
		Src:    p.Dst,
		Dst:    p.Src,
		Kind:   pkt.Pong,
		Seq:    p.Seq,
		Size:   p.Size,
		DSCP:   p.DSCP,
		SentAt: s.eng.Now(),
	})
	s.send(p.Dst, pong)
}

package fabric

import (
	"fmt"

	"tcn/internal/core"
	"tcn/internal/digest"
	"tcn/internal/invariant"
	"tcn/internal/obs"
	"tcn/internal/obs/prof"
	"tcn/internal/pkt"
	"tcn/internal/queue"
	"tcn/internal/sched"
	"tcn/internal/sim"
)

// Receiver is anything that can accept a packet from a link: a host, a
// switch, or a test sink.
type Receiver interface {
	Receive(p *pkt.Packet)
}

// Classifier maps a packet to the egress queue index that will hold it.
// The paper's prototype classifies on the DSCP field (§5).
type Classifier func(p *pkt.Packet) int

// ClassifyByDSCP returns a classifier that uses the DSCP value directly as
// the queue index, clamped to the queue count.
func ClassifyByDSCP(numQueues int) Classifier {
	return func(p *pkt.Packet) int {
		i := int(p.DSCP)
		if i >= numQueues {
			i = numQueues - 1
		}
		return i
	}
}

// PortConfig describes one egress port.
type PortConfig struct {
	// Rate is the line rate of the attached link.
	Rate Rate
	// PropDelay is the one-way propagation delay of the attached link.
	PropDelay sim.Time
	// Queues is the number of per-class queues (>= 1).
	Queues int
	// BufferBytes is the shared buffer pool for the port; 0 = unlimited.
	BufferBytes int
	// PerQueueBytes optionally caps each queue (static partitioning
	// ablation); 0 = unlimited.
	PerQueueBytes int
	// Scheduler arbitrates the queues; nil defaults to FIFO.
	Scheduler sched.Scheduler
	// Marker is the ECN scheme guarding the port; nil defaults to none.
	Marker core.Marker
	// Classify maps packets to queues; nil defaults to DSCP.
	Classify Classifier
	// Shaper is the token-bucket rate limiter between the scheduler and
	// dequeue marking (§5); nil = none, the link drains at Rate.
	Shaper *TokenBucket
}

// Observer receives a port's per-packet pipeline events. Observers only
// watch: they must not change the packet or the port, so an observed run
// executes the same events as a bare one. The verdict is the port's
// scratch — an observer copies what it keeps.
type Observer interface {
	// Enqueue sees every admitted packet after enqueue-side marking.
	Enqueue(now sim.Time, qi int, p *pkt.Packet)
	// Verdict sees every decisive decision: a CE mark, an AQM rule
	// firing on a non-ECT packet, or a buffer drop, which arrives as
	// the admission verdict with Dropped set.
	Verdict(now sim.Time, qi int, p *pkt.Packet, v *core.Verdict)
	// Transmit sees every departing packet after dequeue-side marking.
	Transmit(now sim.Time, qi int, p *pkt.Packet)
}

// Port is an egress port: a multi-queue shared buffer drained by a
// scheduler onto a fixed-rate link, with an ECN marker observing both
// sides. The processing order per packet is the paper's qdisc pipeline
// (§5): classify → enqueue marking → schedule → token-bucket shaper (if
// configured) → dequeue marking → transmit.
type Port struct {
	eng      *sim.Engine
	buf      *queue.Buffer
	sch      sched.Scheduler
	marker   core.Marker
	shaper   *TokenBucket
	rate     Rate
	prop     sim.Time
	peer     Receiver
	classify Classifier
	busy     bool
	// waiting is set while the head packet waits for shaper tokens.
	waiting bool

	// deliverFn is the delivery callback, created once at construction
	// so per-packet scheduling goes through AfterArg with no closure
	// allocation.
	deliverFn func(any)

	// TxPackets and TxBytes count transmissions per queue.
	TxPackets []int64
	TxBytes   []int64
	// admitted and admittedBytes count what the buffer took, per queue,
	// for Switch.CheckConservation; DigestState leaves them out.
	admitted      []int64
	admittedBytes []int64

	// obs is the observer list; empty = off, and each pipeline stage
	// pays one length check.
	obs []Observer

	// verdict is the per-port scratch every marker call fills in; one
	// suffices because each engine (and thus each port) is
	// single-goroutine. Reusing it keeps attribution allocation-free.
	verdict core.Verdict

	// prof and the three scopes, when attached via SetProfiler, bracket
	// each entry into the port (Send and the link timer) with the
	// cost profiler's port scope and each scheduler and marker call with
	// that component's scope. Nil prof = off, one nil check per bracket.
	prof      *prof.Profiler
	scope     *prof.Scope
	schScope  *prof.Scope
	markScope *prof.Scope
}

// NewPort builds a port from cfg, delivering transmitted packets to peer.
// A nil peer ends the link at the port: transmissions reach observers
// only, with no delivery event.
func NewPort(eng *sim.Engine, cfg PortConfig, peer Receiver) *Port {
	if cfg.Queues <= 0 {
		panic(fmt.Sprintf("fabric: port needs at least one queue, got %d", cfg.Queues))
	}
	if cfg.Rate <= 0 {
		panic(fmt.Sprintf("fabric: port rate %v must be positive", cfg.Rate))
	}
	s := cfg.Scheduler
	if s == nil {
		s = sched.NewFIFO()
	}
	m := cfg.Marker
	if m == nil {
		m = core.Nop{}
	}
	c := cfg.Classify
	if c == nil {
		c = ClassifyByDSCP(cfg.Queues)
	}
	// The four per-queue tallies share one backing array: one allocation.
	q := cfg.Queues
	tally := make([]int64, 4*q)
	p := &Port{
		eng:           eng,
		buf:           queue.NewBuffer(cfg.Queues, cfg.BufferBytes, cfg.PerQueueBytes),
		sch:           s,
		marker:        m,
		shaper:        cfg.Shaper,
		rate:          cfg.Rate,
		prop:          cfg.PropDelay,
		peer:          peer,
		classify:      c,
		TxPackets:     tally[:q:q],
		TxBytes:       tally[q : 2*q : 2*q],
		admitted:      tally[2*q : 3*q : 3*q],
		admittedBytes: tally[3*q:],
	}
	s.Bind(p.buf)
	p.deliverFn = func(v any) { p.peer.Receive(v.(*pkt.Packet)) }
	return p
}

// Observe appends o to the port's observer list. Attach before traffic
// flows; observers see each event in attach order.
func (pt *Port) Observe(o Observer) { pt.obs = append(pt.obs, o) }

// SetProfiler brackets the port's pipeline stages with cost-profiler
// scopes: the port itself under "port:<label>" (the same label the
// ledger and digest layers use for this port), its scheduler under
// "sched:<name>", and its marker under "marker:<name>". Call at attach
// time, before traffic flows; the scopes only observe, so fingerprints
// are unchanged.
func (pt *Port) SetProfiler(p *prof.Profiler, label string) {
	pt.prof = p
	pt.scope = p.NewScope("port:" + label)
	pt.schScope = p.NewScope("sched:" + pt.sch.Name())
	pt.markScope = p.NewScope("marker:" + pt.marker.Name())
}

// Send admits p to the port and reports whether the buffer took it. It
// classifies, applies admission control against the shared buffer,
// stamps the enqueue timestamp, runs enqueue-side marking, and kicks the
// transmitter if the link is idle and not waiting for shaper tokens. A
// packet the buffer rejects goes back to the pool it came from once the
// observers have seen the drop verdict, so the caller must not touch it
// after Send returns false.
func (pt *Port) Send(p *pkt.Packet) bool {
	if invariant.Enabled {
		invariant.Checkf(!p.Poisoned(), "fabric: port sends packet %p after its release", p)
	}
	if pt.prof != nil {
		pt.scope.Enter()
	}
	now := pt.eng.Now()
	qi := pt.classify(p)
	ok := pt.buf.Push(qi, p)
	if !ok {
		if len(pt.obs) != 0 {
			pt.verdict.Reset(core.StageAdmission, pt.buf.Bytes(qi), pt.buf.Used())
			pt.verdict.Reason = core.ReasonBufferOverflow
			pt.verdict.Dropped = true
			pt.notify(now, qi, p)
		}
		p.Release()
	} else {
		pt.admitted[qi]++
		pt.admittedBytes[qi] += int64(p.Size)
		p.EnqueuedAt = now
		if pt.prof != nil {
			pt.schScope.Enter()
		}
		pt.sch.OnEnqueue(now, qi, p)
		if pt.prof != nil {
			pt.prof.Exit()
		}
		pt.verdict.Reset(core.StageEnqueue, pt.buf.Bytes(qi), pt.buf.Used())
		if pt.prof != nil {
			pt.markScope.Enter()
		}
		pt.marker.OnEnqueue(now, qi, p, pt, &pt.verdict)
		if pt.prof != nil {
			pt.prof.Exit()
		}
		if len(pt.obs) != 0 {
			pt.notify(now, qi, p)
		}
		if !pt.busy && !pt.waiting {
			pt.transmitNext()
		}
	}
	if pt.prof != nil {
		pt.prof.Exit()
	}
	return ok
}

// notify hands one pipeline stage's outcome to every observer: the
// verdict when it is decisive, then, for the enqueue and dequeue stages,
// the Enqueue or Transmit event. A shaped port first records the bucket's
// level in the verdict through Level, which does not refill: a refill
// here would change the later float rounding of the bucket.
func (pt *Port) notify(now sim.Time, qi int, p *pkt.Packet) {
	v := &pt.verdict
	if pt.shaper != nil {
		v.TokensBytes = pt.shaper.Level(now)
	}
	decisive := v.Decisive()
	for _, o := range pt.obs {
		if decisive {
			o.Verdict(now, qi, p, v)
		}
		switch v.Stage {
		case core.StageEnqueue:
			o.Enqueue(now, qi, p)
		case core.StageDequeue:
			o.Transmit(now, qi, p)
		case core.StageAdmission:
			// A drop has only its verdict.
		}
	}
}

// linkFree is the port's timer entry: the link finished a serialization
// or, after a shaper stall, tokens accrued. It is the AfterArg trampoline
// form — a package-level function plus the *Port as the argument — so
// scheduling it never allocates a closure. It brackets transmitNext with
// the port scope, as Send does, so the scope is entered once per entry.
func linkFree(v any) {
	pt := v.(*Port)
	pt.waiting = false
	if pt.prof != nil {
		pt.scope.Enter()
	}
	pt.transmitNext()
	if pt.prof != nil {
		pt.prof.Exit()
	}
}

// transmitNext asks the scheduler for the next queue, passes its head
// through the shaper, dequeues, runs dequeue-side marking, and occupies
// the link for the serialization time. Its callers hold the port scope.
func (pt *Port) transmitNext() {
	now := pt.eng.Now()
	if pt.prof != nil {
		pt.schScope.Enter()
	}
	qi := pt.sch.Next(now)
	if pt.prof != nil {
		pt.prof.Exit()
	}
	if qi < 0 {
		pt.busy = false
		return
	}
	if pt.shaper != nil {
		if ok, wait := pt.shaper.Take(now, pt.buf.Head(qi).Size); !ok {
			// Not enough tokens: hold the link until they accrue.
			pt.busy = false
			pt.waiting = true
			pt.eng.AfterArg(wait, linkFree, pt)
			return
		}
	}
	p := pt.buf.Pop(qi)
	if p == nil {
		panic(fmt.Sprintf("fabric: scheduler %s chose empty queue %d", pt.sch.Name(), qi))
	}
	if invariant.Enabled {
		invariant.Checkf(p.Sojourn(now) >= 0,
			"fabric: negative sojourn %v (enqueued at %v, dequeued at %v)",
			p.Sojourn(now), p.EnqueuedAt, now)
	}
	if pt.prof != nil {
		pt.schScope.Enter()
	}
	pt.sch.OnDequeue(now, qi, p)
	if pt.prof != nil {
		pt.prof.Exit()
	}
	pt.verdict.Reset(core.StageDequeue, pt.buf.Bytes(qi), pt.buf.Used())
	if pt.prof != nil {
		pt.markScope.Enter()
	}
	pt.marker.OnDequeue(now, qi, p, pt, &pt.verdict)
	if pt.prof != nil {
		pt.prof.Exit()
	}
	pt.TxPackets[qi]++
	pt.TxBytes[qi] += int64(p.Size)
	if len(pt.obs) != 0 {
		pt.notify(now, qi, p)
	}
	pt.busy = true
	txDone := pt.rate.Serialize(p.Size)
	if pt.peer != nil {
		pt.eng.AfterArg(txDone+pt.prop, pt.deliverFn, p)
	}
	pt.eng.AfterArg(txDone, linkFree, pt)
}

// Instrument attaches the standard per-queue stats bundle (enqueue/
// transmit/drop byte+packet counters, CE mark counter, sojourn and
// occupancy histograms) to the registry under label, as one observer.
// The definitions line up with trace.Tracer: tx counts every
// transmission (marked or not), mark counts transmissions leaving with
// CE, drop counts admission rejections — so registry counters and tracer
// counts reconcile exactly on the same run.
func (pt *Port) Instrument(r *obs.Registry, label string) *obs.PortObs {
	if invariant.Enabled {
		// The reconciliation identity (enq − tx == buffered) only holds
		// when the counters observe the port's whole life.
		invariant.Checkf(pt.buf.Used() == 0,
			"fabric: Instrument(%q) on a port already holding %d bytes", label, pt.buf.Used())
	}
	s := &portStats{pt: pt, stats: obs.NewPortObs(r, label, pt.buf.NumQueues())}
	pt.Observe(s)
	return s.stats
}

// portStats feeds a port's events into its registry bundle. It lives in
// fabric rather than obs because obs cannot name *core.Verdict (core
// imports obs).
type portStats struct {
	pt    *Port
	stats *obs.PortObs
}

// Enqueue records the admission and the queue's occupancy after it.
func (s *portStats) Enqueue(_ sim.Time, qi int, p *pkt.Packet) {
	s.stats.Enqueue(qi, p.Size, s.pt.buf.Bytes(qi))
}

// Verdict records buffer drops; marks are counted at transmit.
func (s *portStats) Verdict(_ sim.Time, qi int, p *pkt.Packet, v *core.Verdict) {
	if v.Dropped {
		s.stats.Drop(qi, p.Size)
	}
}

// Transmit records the departure and its sojourn.
func (s *portStats) Transmit(now sim.Time, qi int, p *pkt.Packet) {
	s.stats.Transmit(qi, p.Size, p.Sojourn(now), p.ECN == pkt.CE)
	if invariant.Enabled {
		s.check(qi)
	}
}

// check asserts, after a transmit on queue qi, that the obs counters
// reconcile with the port's own accounting (invariants builds only):
// counted enqueued bytes minus transmitted bytes equal the bytes still
// buffered, counters agree with the port's transmit tallies, and CE marks
// never exceed transmissions.
func (s *portStats) check(qi int) {
	q, pt := &s.stats.Q[qi], s.pt
	invariant.Checkf(q.TxPackets.Value() == pt.TxPackets[qi],
		"fabric: obs tx_packets %d != port count %d on queue %d",
		q.TxPackets.Value(), pt.TxPackets[qi], qi)
	invariant.Checkf(q.TxBytes.Value() == pt.TxBytes[qi],
		"fabric: obs tx_bytes %d != port count %d on queue %d",
		q.TxBytes.Value(), pt.TxBytes[qi], qi)
	invariant.Checkf(q.MarkPackets.Value() <= q.TxPackets.Value(),
		"fabric: %d CE marks exceed %d transmissions on queue %d",
		q.MarkPackets.Value(), q.TxPackets.Value(), qi)
	buffered := q.EnqBytes.Value() - q.TxBytes.Value()
	invariant.Checkf(buffered == int64(pt.buf.Bytes(qi)),
		"fabric: obs enq−tx = %d bytes but queue %d holds %d",
		buffered, qi, pt.buf.Bytes(qi))
}

// DigestState folds the port's state into a run fingerprint: the link
// busy flag, per-queue transmit tallies, the buffer occupancy, and — when
// they expose state — the scheduler's credit counters and the marker's
// mark tally. Presence flags keep the digest shape fixed. A shaped port
// also folds its waiting flag and bucket, with no presence flag, so an
// unshaped port's digest has no shaper bytes at all.
func (pt *Port) DigestState(h *digest.Hash) {
	h.WriteBool(pt.busy)
	h.WriteInt(len(pt.TxPackets))
	for i := range pt.TxPackets {
		h.WriteInt64(pt.TxPackets[i])
		h.WriteInt64(pt.TxBytes[i])
	}
	pt.buf.DigestState(h)
	if d, ok := pt.sch.(digest.Digestable); ok {
		h.WriteBool(true)
		d.DigestState(h)
	} else {
		h.WriteBool(false)
	}
	if mc, ok := pt.marker.(core.MarkCounter); ok {
		h.WriteBool(true)
		h.WriteInt64(mc.MarkCount())
	} else {
		h.WriteBool(false)
	}
	if pt.shaper != nil {
		h.WriteBool(pt.waiting)
		pt.shaper.DigestState(h)
	}
}

// Buffer exposes the port's buffer for tests and metrics.
func (pt *Port) Buffer() *queue.Buffer { return pt.buf }

// Engine exposes the port's event engine, so observers attaching to an
// already-built port can schedule probes on the right clock.
func (pt *Port) Engine() *sim.Engine { return pt.eng }

// Marker exposes the port's marker.
func (pt *Port) Marker() core.Marker { return pt.marker }

// Rate returns the port's line rate.
func (pt *Port) Rate() Rate { return pt.rate }

// NumQueues implements core.PortState.
func (pt *Port) NumQueues() int { return pt.buf.NumQueues() }

// QueueLen implements core.PortState.
func (pt *Port) QueueLen(i int) int { return pt.buf.Len(i) }

// QueueBytes implements core.PortState.
func (pt *Port) QueueBytes(i int) int { return pt.buf.Bytes(i) }

// PortBytes implements core.PortState.
func (pt *Port) PortBytes() int { return pt.buf.Used() }

// LinkRate implements core.PortState.
func (pt *Port) LinkRate() int64 { return int64(pt.rate) }

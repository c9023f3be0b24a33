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
}

// Port is an egress port: a multi-queue shared buffer drained by a
// scheduler onto a fixed-rate link, with an ECN marker observing both
// sides. The processing order per packet is the paper's qdisc pipeline
// (§5): classify → enqueue marking → schedule → dequeue marking →
// transmit.
type Port struct {
	eng      *sim.Engine
	buf      *queue.Buffer
	sch      sched.Scheduler
	marker   core.Marker
	rate     Rate
	prop     sim.Time
	peer     Receiver
	classify Classifier
	busy     bool

	// deliverFn and txFn are the two link callbacks, created once at
	// construction so per-packet scheduling goes through AfterArg with no
	// closure allocation.
	deliverFn func(any)
	txFn      func()

	// TxPackets and TxBytes count transmissions per queue.
	TxPackets []int64
	TxBytes   []int64
	// OnEnqueue, if set, observes every admitted packet after the
	// enqueue timestamp is stamped and enqueue-side marking has run.
	OnEnqueue func(now sim.Time, qi int, p *pkt.Packet)
	// OnTransmit, if set, observes every departing packet after marking.
	OnTransmit func(now sim.Time, qi int, p *pkt.Packet)
	// OnDrop, if set, observes every packet rejected by the buffer.
	OnDrop func(now sim.Time, qi int, p *pkt.Packet)
	// OnVerdict, if set, observes every decisive marking/dropping
	// decision (CE applied, buffer overflow, or an AQM rule firing on a
	// non-ECT packet). The verdict is the port's scratch — consumers
	// must copy what they keep.
	OnVerdict func(now sim.Time, qi int, p *pkt.Packet, v *core.Verdict)

	// verdict is the per-port scratch every marker call fills in; one
	// suffices because each engine (and thus each port) is
	// single-goroutine. Reusing it keeps attribution allocation-free.
	verdict core.Verdict

	// stats, when attached via Instrument, receives per-queue counters
	// and histograms on every enqueue/drop/transmit. Nil = off, and the
	// hot path pays only a nil check.
	stats *obs.PortObs

	// prof and the three scopes, when attached via SetProfiler, bracket
	// the enqueue and transmit stages with the cost profiler's port scope
	// and each scheduler and marker call with that component's scope.
	// Nil prof = off, one nil check per bracket.
	prof      *prof.Profiler
	scope     *prof.Scope
	schScope  *prof.Scope
	markScope *prof.Scope
}

// NewPort builds a port from cfg, delivering transmitted packets to peer.
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
	p := &Port{
		eng:       eng,
		buf:       queue.NewBuffer(cfg.Queues, cfg.BufferBytes, cfg.PerQueueBytes),
		sch:       s,
		marker:    m,
		rate:      cfg.Rate,
		prop:      cfg.PropDelay,
		peer:      peer,
		classify:  c,
		TxPackets: make([]int64, cfg.Queues),
		TxBytes:   make([]int64, cfg.Queues),
	}
	s.Bind(p.buf)
	p.deliverFn = func(v any) { p.peer.Receive(v.(*pkt.Packet)) }
	p.txFn = p.transmitNext
	return p
}

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

// Send admits p to the port. It classifies, applies admission control
// against the shared buffer, stamps the enqueue timestamp, runs enqueue-
// side marking, and kicks the transmitter if the link is idle.
func (pt *Port) Send(p *pkt.Packet) {
	if pt.prof != nil {
		pt.scope.Enter()
	}
	now := pt.eng.Now()
	qi := pt.classify(p)
	if !pt.buf.Push(qi, p) {
		if pt.stats != nil {
			pt.stats.Drop(qi, p.Size)
		}
		if pt.OnDrop != nil {
			pt.OnDrop(now, qi, p)
		}
		if pt.OnVerdict != nil {
			pt.verdict.Reset(core.StageAdmission, pt.buf.Bytes(qi), pt.buf.Used())
			pt.verdict.Reason = core.ReasonBufferOverflow
			pt.verdict.Dropped = true
			pt.OnVerdict(now, qi, p, &pt.verdict)
		}
		if pt.prof != nil {
			pt.prof.Exit()
		}
		return
	}
	if pt.stats != nil {
		pt.stats.Enqueue(qi, p.Size, pt.buf.Bytes(qi))
	}
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
	if pt.OnVerdict != nil && pt.verdict.Decisive() {
		pt.OnVerdict(now, qi, p, &pt.verdict)
	}
	if pt.OnEnqueue != nil {
		pt.OnEnqueue(now, qi, p)
	}
	if !pt.busy {
		pt.transmitNext()
	}
	if pt.prof != nil {
		pt.prof.Exit()
	}
}

// transmitNext asks the scheduler for the next queue, dequeues, runs
// dequeue-side marking, and occupies the link for the serialization time.
func (pt *Port) transmitNext() {
	if pt.prof != nil {
		pt.scope.Enter()
	}
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
		if pt.prof != nil {
			pt.prof.Exit()
		}
		return
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
	if pt.OnVerdict != nil && pt.verdict.Decisive() {
		pt.OnVerdict(now, qi, p, &pt.verdict)
	}
	pt.TxPackets[qi]++
	pt.TxBytes[qi] += int64(p.Size)
	if pt.stats != nil {
		pt.stats.Transmit(qi, p.Size, p.Sojourn(now), p.ECN == pkt.CE)
		if invariant.Enabled {
			pt.checkStats(qi)
		}
	}
	if pt.OnTransmit != nil {
		pt.OnTransmit(now, qi, p)
	}
	pt.busy = true
	txDone := pt.rate.Serialize(p.Size)
	arrival := txDone + pt.prop
	pt.eng.AfterArg(arrival, pt.deliverFn, p)
	pt.eng.After(txDone, pt.txFn)
	if pt.prof != nil {
		pt.prof.Exit()
	}
}

// Instrument attaches the standard per-queue stats bundle (enqueue/
// transmit/drop byte+packet counters, CE mark counter, sojourn and
// occupancy histograms) to the registry under label. The definitions
// line up with trace.Tracer: tx counts every transmission (marked or
// not), mark counts transmissions leaving with CE, drop counts
// admission rejections — so registry counters and tracer counts
// reconcile exactly on the same run.
func (pt *Port) Instrument(r *obs.Registry, label string) *obs.PortObs {
	if invariant.Enabled {
		// The reconciliation identity (enq − tx == buffered) only holds
		// when the counters observe the port's whole life.
		invariant.Checkf(pt.buf.Used() == 0,
			"fabric: Instrument(%q) on a port already holding %d bytes", label, pt.buf.Used())
	}
	pt.stats = obs.NewPortObs(r, label, pt.buf.NumQueues())
	return pt.stats
}

// checkStats asserts, after a transmit on queue qi, that the obs
// counters reconcile with the port's own accounting (invariants builds
// only): counted enqueued bytes minus transmitted bytes equal the bytes
// still buffered, counters agree with the port's transmit tallies, and
// CE marks never exceed transmissions.
func (pt *Port) checkStats(qi int) {
	q := &pt.stats.Q[qi]
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
// mark tally. Presence flags keep the digest shape fixed.
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
}

// Buffer exposes the port's buffer for tests and metrics.
func (pt *Port) Buffer() *queue.Buffer { return pt.buf }

// Engine exposes the port's event engine, so observers attaching to an
// already-built port can schedule probes on the right clock.
func (pt *Port) Engine() *sim.Engine { return pt.eng }

// Scheduler exposes the port's scheduler.
func (pt *Port) Scheduler() sched.Scheduler { return pt.sch }

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

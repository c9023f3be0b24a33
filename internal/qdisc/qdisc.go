// Package qdisc reassembles the paper's software prototype (§5) as a
// library: the five-stage packet pipeline of the Linux queueing-discipline
// kernel module — DSCP classifier, enqueue ECN marking, packet scheduler,
// token-bucket rate limiter, dequeue ECN marking — running on the
// simulator clock instead of kernel time.
//
// The deliberate difference from fabric.Port is the rate limiter: the
// prototype shapes egress at 99.5 % of NIC capacity with a ~1.67-MTU
// bucket so queueing stays inside the qdisc where the marker can see it,
// rather than draining into NIC ring buffers (§5, "Rate Limiter").
package qdisc

import (
	"fmt"

	"tcn/internal/core"
	"tcn/internal/digest"
	"tcn/internal/fabric"
	"tcn/internal/invariant"
	"tcn/internal/obs"
	"tcn/internal/obs/prof"
	"tcn/internal/pkt"
	"tcn/internal/queue"
	"tcn/internal/sched"
	"tcn/internal/sim"
)

// TokenBucket is the prototype's shaper: tokens accrue at Rate and each
// transmission spends the packet's wire size; Burst bounds accumulation.
type TokenBucket struct {
	// Rate is the token fill rate in bits per second.
	Rate fabric.Rate
	// Burst is the bucket depth in bytes (paper: 2.5 KB ≈ 1.67 MTU).
	Burst int

	tokens float64 // bytes
	last   sim.Time
}

// NewTokenBucket returns a full bucket.
func NewTokenBucket(rate fabric.Rate, burst int) *TokenBucket {
	if rate <= 0 || burst <= 0 {
		panic(fmt.Sprintf("qdisc: invalid token bucket rate=%v burst=%d", rate, burst))
	}
	return &TokenBucket{Rate: rate, Burst: burst, tokens: float64(burst)}
}

// refill accrues tokens up to the burst cap.
func (tb *TokenBucket) refill(now sim.Time) {
	if now > tb.last {
		tb.tokens += float64(tb.Rate) / 8 * (now - tb.last).Seconds()
		if tb.tokens > float64(tb.Burst) {
			tb.tokens = float64(tb.Burst)
		}
		tb.last = now
	}
}

// Take attempts to spend size bytes at time now. On failure it reports
// how long to wait until enough tokens accrue.
func (tb *TokenBucket) Take(now sim.Time, size int) (ok bool, wait sim.Time) {
	tb.refill(now)
	if invariant.Enabled {
		invariant.Checkf(tb.tokens >= 0 && tb.tokens <= float64(tb.Burst),
			"qdisc: token count %f outside [0, burst %d] after refill", tb.tokens, tb.Burst)
	}
	if tb.tokens >= float64(size) {
		tb.tokens -= float64(size)
		if invariant.Enabled {
			invariant.Checkf(tb.tokens >= 0,
				"qdisc: token bucket went negative (%f) spending %d bytes", tb.tokens, size)
		}
		return true, 0
	}
	missing := float64(size) - tb.tokens
	wait = sim.Time(missing * 8 / float64(tb.Rate) * float64(sim.Second))
	if wait < 1 {
		wait = 1
	}
	return false, wait
}

// Tokens returns the current token count in bytes (after refill).
func (tb *TokenBucket) Tokens(now sim.Time) float64 {
	tb.refill(now)
	return tb.tokens
}

// DigestState folds the shaper state into a run fingerprint: the stored
// token count and the last refill instant. The stored fields — not a
// refilled projection — are digested, because digesting must not perturb
// the bucket (an early refill changes later floating-point rounding).
func (tb *TokenBucket) DigestState(h *digest.Hash) {
	h.WriteFloat64(tb.tokens)
	h.WriteInt64(int64(tb.last))
}

// Level computes the token count in bytes at now WITHOUT advancing the
// bucket state. Observers (flight-recorder probes) must use this instead
// of Tokens: an early refill changes the floating-point rounding of later
// ones, so a probing run would diverge from a bare one.
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

// Config assembles a Qdisc.
type Config struct {
	// Queues is the number of per-class FIFO queues.
	Queues int
	// BufferBytes is the shared buffer pool (0 = unlimited).
	BufferBytes int
	// Scheduler arbitrates the queues; nil = FIFO.
	Scheduler sched.Scheduler
	// Marker is the ECN scheme; nil = none.
	Marker core.Marker
	// Classify maps packets to queues; nil = DSCP.
	Classify fabric.Classifier
	// LineRate is the NIC speed; the shaper runs at ShapeFraction of it.
	LineRate fabric.Rate
	// ShapeFraction defaults to the paper's 0.995.
	ShapeFraction float64
	// Burst defaults to the paper's 2500 bytes.
	Burst int
	// Transmit receives packets leaving the qdisc (the "NIC driver").
	Transmit func(now sim.Time, p *pkt.Packet)
}

// Qdisc is the assembled pipeline.
type Qdisc struct {
	eng      *sim.Engine
	buf      *queue.Buffer
	sch      sched.Scheduler
	marker   core.Marker
	classify fabric.Classifier
	bucket   *TokenBucket
	rate     fabric.Rate
	transmit func(now sim.Time, p *pkt.Packet)

	busy    bool
	waiting bool

	// OnTransmit, if set, observes every packet leaving the qdisc after
	// dequeue-side marking, before the Transmit callback.
	OnTransmit func(now sim.Time, qi int, p *pkt.Packet)
	// OnDrop, if set, observes every packet rejected by the buffer.
	OnDrop func(now sim.Time, qi int, p *pkt.Packet)
	// OnVerdict, if set, observes every decisive marking/dropping
	// decision. The verdict is the qdisc's scratch — copy to keep.
	OnVerdict func(now sim.Time, qi int, p *pkt.Packet, v *core.Verdict)
	// OnShaperWait, if set, observes every token-bucket stall: the head
	// of queue qi must wait `wait` before enough tokens accrue.
	OnShaperWait func(now sim.Time, qi int, wait sim.Time)

	// verdict is the per-qdisc scratch every marker call fills in
	// (single-goroutine per engine, so one suffices; see fabric.Port).
	verdict core.Verdict

	// stats, when attached via Instrument, receives per-queue counters
	// and histograms; nil = off.
	stats *obs.PortObs

	// prof and the four scopes, when attached via SetProfiler, bracket
	// the enqueue and shaper/dequeue stages with cost-profiler scopes and
	// each scheduler and marker call with that component's scope. Nil
	// prof = off, one nil check per bracket.
	prof      *prof.Profiler
	enqScope  *prof.Scope
	deqScope  *prof.Scope
	schScope  *prof.Scope
	markScope *prof.Scope

	// Drops counts buffer rejections; Sent counts transmissions. Both
	// are int64 so multi-hour runs cannot overflow on 32-bit platforms.
	Drops int64
	Sent  int64
}

// New builds a qdisc.
func New(eng *sim.Engine, cfg Config) *Qdisc {
	if cfg.Queues <= 0 {
		panic(fmt.Sprintf("qdisc: need at least one queue, got %d", cfg.Queues))
	}
	if cfg.LineRate <= 0 {
		panic("qdisc: need a line rate")
	}
	if cfg.Transmit == nil {
		panic("qdisc: need a transmit function")
	}
	frac := cfg.ShapeFraction
	if frac == 0 { //tcnlint:floatexact zero is the "unset" sentinel, never computed
		frac = 0.995
	}
	burst := cfg.Burst
	if burst == 0 {
		burst = 2500
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
		c = fabric.ClassifyByDSCP(cfg.Queues)
	}
	q := &Qdisc{
		eng:      eng,
		buf:      queue.NewBuffer(cfg.Queues, cfg.BufferBytes, 0),
		sch:      s,
		marker:   m,
		classify: c,
		bucket:   NewTokenBucket(fabric.Rate(float64(cfg.LineRate)*frac), burst),
		rate:     cfg.LineRate,
		transmit: cfg.Transmit,
	}
	s.Bind(q.buf)
	return q
}

// SetProfiler brackets the qdisc's pipeline stages with cost-profiler
// scopes: the enqueue stage under "qdisc:<label>:enq", the shaper/dequeue
// stage under "qdisc:<label>:deq", the scheduler under "sched:<name>",
// and the marker under "marker:<name>". Attach before traffic flows; the
// scopes only observe, so fingerprints are unchanged.
func (q *Qdisc) SetProfiler(p *prof.Profiler, label string) {
	q.prof = p
	q.enqScope = p.NewScope("qdisc:" + label + ":enq")
	q.deqScope = p.NewScope("qdisc:" + label + ":deq")
	q.schScope = p.NewScope("sched:" + q.sch.Name())
	q.markScope = p.NewScope("marker:" + q.marker.Name())
}

// Enqueue admits a packet from the IP layer: classify, buffer, enqueue
// marking.
func (q *Qdisc) Enqueue(p *pkt.Packet) bool {
	if q.prof != nil {
		q.enqScope.Enter()
	}
	now := q.eng.Now()
	qi := q.classify(p)
	if !q.buf.Push(qi, p) {
		q.Drops++
		if q.stats != nil {
			q.stats.Drop(qi, p.Size)
		}
		if q.OnDrop != nil {
			q.OnDrop(now, qi, p)
		}
		if q.OnVerdict != nil {
			q.verdict.Reset(core.StageAdmission, q.buf.Bytes(qi), q.buf.Used())
			q.verdict.Reason = core.ReasonBufferOverflow
			q.verdict.Dropped = true
			q.verdict.TokensBytes = q.bucket.Level(now)
			q.OnVerdict(now, qi, p, &q.verdict)
		}
		if q.prof != nil {
			q.prof.Exit()
		}
		return false
	}
	if q.stats != nil {
		q.stats.Enqueue(qi, p.Size, q.buf.Bytes(qi))
	}
	p.EnqueuedAt = now
	if q.prof != nil {
		q.schScope.Enter()
	}
	q.sch.OnEnqueue(now, qi, p)
	if q.prof != nil {
		q.prof.Exit()
	}
	q.verdict.Reset(core.StageEnqueue, q.buf.Bytes(qi), q.buf.Used())
	if q.OnVerdict != nil {
		// Level is a pure projection (no refill), so it is safe to skip
		// entirely when nothing consumes the verdict; only the trace
		// ledger reads TokensBytes.
		q.verdict.TokensBytes = q.bucket.Level(now)
	}
	if q.prof != nil {
		q.markScope.Enter()
	}
	q.marker.OnEnqueue(now, qi, p, q, &q.verdict)
	if q.prof != nil {
		q.prof.Exit()
	}
	if q.OnVerdict != nil && q.verdict.Decisive() {
		q.OnVerdict(now, qi, p, &q.verdict)
	}
	if !q.busy && !q.waiting {
		q.dequeue()
	}
	if q.prof != nil {
		q.prof.Exit()
	}
	return true
}

// dequeue pulls the next packet through the shaper and dequeue marker.
func (q *Qdisc) dequeue() {
	if q.prof != nil {
		q.deqScope.Enter()
	}
	now := q.eng.Now()
	if q.prof != nil {
		q.schScope.Enter()
	}
	qi := q.sch.Next(now)
	if q.prof != nil {
		q.prof.Exit()
	}
	if qi < 0 {
		q.busy = false
		if q.prof != nil {
			q.prof.Exit()
		}
		return
	}
	head := q.buf.Head(qi)
	if ok, wait := q.bucket.Take(now, head.Size); !ok {
		// Not enough tokens: retry when they have accrued.
		if q.OnShaperWait != nil {
			q.OnShaperWait(now, qi, wait)
		}
		q.busy = false
		q.waiting = true
		q.eng.AfterArg(wait, shaperRetry, q)
		if q.prof != nil {
			q.prof.Exit()
		}
		return
	}
	p := q.buf.Pop(qi)
	if invariant.Enabled {
		invariant.Checkf(p.Sojourn(now) >= 0,
			"qdisc: negative sojourn %v (enqueued at %v, dequeued at %v)",
			p.Sojourn(now), p.EnqueuedAt, now)
	}
	if q.prof != nil {
		q.schScope.Enter()
	}
	q.sch.OnDequeue(now, qi, p)
	if q.prof != nil {
		q.prof.Exit()
	}
	q.verdict.Reset(core.StageDequeue, q.buf.Bytes(qi), q.buf.Used())
	if q.OnVerdict != nil {
		q.verdict.TokensBytes = q.bucket.Level(now)
	}
	if q.prof != nil {
		q.markScope.Enter()
	}
	q.marker.OnDequeue(now, qi, p, q, &q.verdict)
	if q.prof != nil {
		q.prof.Exit()
	}
	if q.OnVerdict != nil && q.verdict.Decisive() {
		q.OnVerdict(now, qi, p, &q.verdict)
	}
	q.Sent++
	if q.stats != nil {
		q.stats.Transmit(qi, p.Size, p.Sojourn(now), p.ECN == pkt.CE)
	}
	if q.OnTransmit != nil {
		q.OnTransmit(now, qi, p)
	}
	q.transmit(now, p)
	// The wire is busy for the serialization time; then pull the next
	// packet. AfterArg with the dequeueStep trampoline instead of the
	// method value q.dequeue: a method value is a fresh closure per
	// evaluation, which would allocate once per transmitted packet.
	q.busy = true
	q.eng.AfterArg(q.rate.Serialize(p.Size), dequeueStep, q)
	if q.prof != nil {
		q.prof.Exit()
	}
}

// dequeueStep resumes the dequeue loop when the wire frees up after a
// serialization delay (the AfterArg trampoline form, like shaperRetry).
func dequeueStep(v any) {
	v.(*Qdisc).dequeue()
}

// shaperRetry resumes dequeueing once shaper tokens have accrued. It is the
// AfterArg trampoline form — a package-level function plus the *Qdisc as
// the argument — so scheduling a retry never allocates a closure.
func shaperRetry(v any) {
	q := v.(*Qdisc)
	q.waiting = false
	if !q.busy {
		q.dequeue()
	}
}

// DigestState folds the whole pipeline's state into a run fingerprint:
// the drop/sent tallies, the dequeue-loop flags, the shaper, the buffer,
// and — when they expose state — the scheduler's credit counters and the
// marker's mark tally. Presence flags keep the digest shape fixed even
// when a scheduler or marker exposes nothing.
func (q *Qdisc) DigestState(h *digest.Hash) {
	h.WriteInt64(q.Drops)
	h.WriteInt64(q.Sent)
	h.WriteBool(q.busy)
	h.WriteBool(q.waiting)
	q.bucket.DigestState(h)
	q.buf.DigestState(h)
	if d, ok := q.sch.(digest.Digestable); ok {
		h.WriteBool(true)
		d.DigestState(h)
	} else {
		h.WriteBool(false)
	}
	if mc, ok := q.marker.(core.MarkCounter); ok {
		h.WriteBool(true)
		h.WriteInt64(mc.MarkCount())
	} else {
		h.WriteBool(false)
	}
}

// Instrument attaches the standard per-queue stats bundle to the
// registry under label, mirroring fabric.Port.Instrument.
func (q *Qdisc) Instrument(r *obs.Registry, label string) *obs.PortObs {
	q.stats = obs.NewPortObs(r, label, q.buf.NumQueues())
	return q.stats
}

// Buffer exposes the buffer for tests.
func (q *Qdisc) Buffer() *queue.Buffer { return q.buf }

// Bucket exposes the shaper, for read-only probing via Level.
func (q *Qdisc) Bucket() *TokenBucket { return q.bucket }

// Engine exposes the qdisc's event engine.
func (q *Qdisc) Engine() *sim.Engine { return q.eng }

// NumQueues implements core.PortState.
func (q *Qdisc) NumQueues() int { return q.buf.NumQueues() }

// QueueLen implements core.PortState.
func (q *Qdisc) QueueLen(i int) int { return q.buf.Len(i) }

// QueueBytes implements core.PortState.
func (q *Qdisc) QueueBytes(i int) int { return q.buf.Bytes(i) }

// PortBytes implements core.PortState.
func (q *Qdisc) PortBytes() int { return q.buf.Used() }

// LinkRate implements core.PortState.
func (q *Qdisc) LinkRate() int64 { return int64(q.rate) }

// Package dcqcn implements a simplified DCQCN (Zhu et al., SIGCOMM 2015),
// the rate-based RDMA congestion control the paper names as a target for
// probabilistic TCN marking (§4.3): unlike DCTCP, DCQCN reacts to *every*
// congestion notification packet (CNP) rather than to a per-window echo,
// so single-threshold cut-off marking synchronizes and starves senders —
// the reason RED-like probabilistic marking (and hence ProbTCN) exists.
//
// The model follows the published algorithm:
//
//   - NP (notification point, the receiver) sends at most one CNP per
//     CNPInterval when CE-marked packets arrive.
//   - RP (reaction point, the sender) on CNP: Rt ← Rc, Rc ← Rc(1−α/2),
//     α ← (1−g)α + g. α decays by (1−g) every AlphaTimer without CNPs.
//   - Rate recovery alternates byte-counter and timer stage events:
//     the first FastRecoverySteps halve toward Rt (Rc ← (Rt+Rc)/2), then
//     additive increase raises Rt by RateAI before each averaging step.
//
// RoCE deployments pair DCQCN with PFC so the fabric is lossless; the
// experiments here use unbounded switch buffers to model that, and the
// senders perform no retransmission.
package dcqcn

import (
	"fmt"

	"tcn/internal/fabric"
	"tcn/internal/pkt"
	"tcn/internal/sim"
)

// Config carries the DCQCN parameters (defaults follow the paper).
type Config struct {
	// LineRate is the NIC speed senders start at and are capped to.
	LineRate fabric.Rate
	// MinRate floors the sending rate.
	MinRate fabric.Rate
	// MTUBytes is the message segment size.
	MTUBytes int
	// G is the alpha gain (paper: 1/256).
	G float64
	// AlphaTimer is the alpha-decay period without CNPs (paper: 55 us).
	AlphaTimer sim.Time
	// CNPInterval rate-limits NP-generated CNPs per flow (paper: 50 us).
	CNPInterval sim.Time
	// IncreaseTimer drives timer-based rate increase (paper: 1.5 ms).
	IncreaseTimer sim.Time
	// IncreaseBytes drives byte-counter-based rate increase (paper:
	// 10 MB).
	IncreaseBytes int64
	// FastRecoverySteps is the number of averaging-only stages before
	// additive increase starts (paper: 5).
	FastRecoverySteps int
	// RateAI is the additive increase step (paper: 40 Mbps).
	RateAI fabric.Rate
}

// withDefaults fills unset fields with the paper's values.
func (c Config) withDefaults() Config {
	if c.LineRate == 0 {
		c.LineRate = 10 * fabric.Gbps
	}
	if c.MinRate == 0 {
		c.MinRate = 10 * fabric.Mbps
	}
	if c.MTUBytes == 0 {
		c.MTUBytes = 1500
	}
	if c.G == 0 { //tcnlint:floatexact zero is the "unset" sentinel, never computed
		c.G = 1.0 / 256
	}
	if c.AlphaTimer == 0 {
		c.AlphaTimer = 55 * sim.Microsecond
	}
	if c.CNPInterval == 0 {
		c.CNPInterval = 50 * sim.Microsecond
	}
	if c.IncreaseTimer == 0 {
		c.IncreaseTimer = 1500 * sim.Microsecond
	}
	if c.IncreaseBytes == 0 {
		c.IncreaseBytes = 10 << 20
	}
	if c.FastRecoverySteps == 0 {
		c.FastRecoverySteps = 5
	}
	if c.RateAI == 0 {
		c.RateAI = 40 * fabric.Mbps
	}
	return c
}

// Stack manages DCQCN flows over a fabric, dispatching data to NPs and
// CNPs back to RPs.
type Stack struct {
	eng   *sim.Engine
	cfg   Config
	hosts []*fabric.Host

	senders   map[pkt.FlowID]*Sender
	notifiers map[pkt.FlowID]*notifier
	nextID    pkt.FlowID

	// OnDeliver observes delivered payload bytes per flow.
	OnDeliver func(now sim.Time, f pkt.FlowID, bytes int)

	// pool recycles packets along this stack's path; deliver returns each
	// packet once its handler has consumed it. Engine-local, never shared
	// across goroutines.
	pool pkt.Pool
}

// NewStack wires a DCQCN stack onto hosts, installing itself as their
// packet handler.
func NewStack(eng *sim.Engine, cfg Config, hosts []*fabric.Host) *Stack {
	s := &Stack{
		eng:       eng,
		cfg:       cfg.withDefaults(),
		hosts:     hosts,
		senders:   make(map[pkt.FlowID]*Sender),
		notifiers: make(map[pkt.FlowID]*notifier),
	}
	for _, h := range hosts {
		h.Handler = s.deliver
	}
	return s
}

// Config returns the effective configuration.
func (s *Stack) Config() Config { return s.cfg }

// Pool exposes the stack's packet pool for self-telemetry reporting.
func (s *Stack) Pool() *pkt.Pool { return &s.pool }

// Start opens an endless DCQCN stream from src to dst in the given
// service class and returns its sender.
func (s *Stack) Start(src, dst int, class uint8) *Sender {
	id := s.nextID
	s.nextID++
	snd := newSender(s, id, src, dst, class)
	s.senders[id] = snd
	s.notifiers[id] = &notifier{stack: s}
	snd.schedule()
	return snd
}

func (s *Stack) deliver(p *pkt.Packet) {
	switch p.Kind {
	case pkt.Data:
		if np := s.notifiers[p.Flow]; np != nil {
			np.onData(p)
		}
		if s.OnDeliver != nil {
			s.OnDeliver(s.eng.Now(), p.Flow, p.Len)
		}
	case pkt.Ack: // CNPs travel as header-only ACK-kind packets with ECE set
		if p.ECE {
			if snd := s.senders[p.Flow]; snd != nil {
				snd.onCNP()
			}
		}
	}
	s.pool.Put(p)
}

// Sender is the DCQCN reaction point.
type Sender struct {
	stack *Stack
	id    pkt.FlowID
	src   int
	dst   int
	class uint8

	rc, rt fabric.Rate // current and target rate
	alpha  float64

	stageByteCount int64
	byteStages     int
	timerStages    int

	alphaTimer    sim.EventRef
	increaseTimer sim.EventRef
	stopped       bool

	// Stored callbacks: pacing, alpha decay, and timer-stage ticks rearm
	// themselves constantly, so each is created once per sender.
	scheduleFn func()
	decayFn    func()
	tickFn     func()

	// CNPs counts received congestion notifications.
	CNPs int
	// SentBytes counts transmitted payload.
	SentBytes int64
}

func newSender(s *Stack, id pkt.FlowID, src, dst int, class uint8) *Sender {
	snd := &Sender{
		stack: s,
		id:    id,
		src:   src,
		dst:   dst,
		class: class,
		rc:    s.cfg.LineRate,
		rt:    s.cfg.LineRate,
	}
	snd.scheduleFn = snd.schedule
	snd.decayFn = func() {
		snd.alpha *= 1 - snd.stack.cfg.G
		if snd.alpha > 1e-6 && !snd.stopped {
			snd.alphaTimer = snd.stack.eng.After(snd.stack.cfg.AlphaTimer, snd.decayFn)
		}
	}
	snd.tickFn = func() {
		if snd.stopped {
			return
		}
		snd.timerStages++
		snd.increase()
		snd.increaseTimer = snd.stack.eng.After(snd.stack.cfg.IncreaseTimer, snd.tickFn)
	}
	snd.armIncrease()
	return snd
}

// Rate returns the current sending rate.
func (snd *Sender) Rate() fabric.Rate { return snd.rc }

// Alpha returns the congestion estimate.
func (snd *Sender) Alpha() float64 { return snd.alpha }

// Stop ends the stream.
func (snd *Sender) Stop() {
	snd.stopped = true
	snd.stack.eng.Cancel(snd.alphaTimer)
	snd.stack.eng.Cancel(snd.increaseTimer)
}

// schedule emits the next paced segment.
func (snd *Sender) schedule() {
	if snd.stopped {
		return
	}
	size := snd.stack.cfg.MTUBytes
	p := snd.stack.pool.New(pkt.Packet{
		Flow:   snd.id,
		Src:    snd.src,
		Dst:    snd.dst,
		Kind:   pkt.Data,
		Len:    size - pkt.HeaderSize,
		Size:   size,
		ECN:    pkt.ECT0,
		DSCP:   snd.class,
		SentAt: snd.stack.eng.Now(),
	})
	snd.stack.hosts[snd.src].Send(p)
	snd.SentBytes += int64(size - pkt.HeaderSize)
	snd.onBytes(int64(size))
	gap := snd.rc.Serialize(size)
	snd.stack.eng.After(gap, snd.scheduleFn)
}

// onCNP applies the multiplicative decrease and restarts recovery.
func (snd *Sender) onCNP() {
	snd.CNPs++
	cfg := snd.stack.cfg
	snd.rt = snd.rc
	snd.rc = fabric.Rate(float64(snd.rc) * (1 - snd.alpha/2))
	if snd.rc < cfg.MinRate {
		snd.rc = cfg.MinRate
	}
	snd.alpha = (1-cfg.G)*snd.alpha + cfg.G
	snd.byteStages, snd.timerStages = 0, 0
	snd.stageByteCount = 0
	snd.armAlphaDecay()
	snd.armIncrease()
}

// armAlphaDecay restarts the no-CNP alpha decay timer.
func (snd *Sender) armAlphaDecay() {
	snd.stack.eng.Cancel(snd.alphaTimer)
	snd.alphaTimer = snd.stack.eng.After(snd.stack.cfg.AlphaTimer, snd.decayFn)
}

// onBytes advances the byte-counter stage machine.
func (snd *Sender) onBytes(n int64) {
	snd.stageByteCount += n
	if snd.stageByteCount >= snd.stack.cfg.IncreaseBytes {
		snd.stageByteCount = 0
		snd.byteStages++
		snd.increase()
	}
}

// armIncrease restarts the timer stage machine.
func (snd *Sender) armIncrease() {
	snd.stack.eng.Cancel(snd.increaseTimer)
	snd.increaseTimer = snd.stack.eng.After(snd.stack.cfg.IncreaseTimer, snd.tickFn)
}

// increase performs one recovery/increase step: fast recovery averages
// toward the target; past FastRecoverySteps the target itself grows.
func (snd *Sender) increase() {
	cfg := snd.stack.cfg
	stage := snd.byteStages
	if snd.timerStages > stage {
		stage = snd.timerStages
	}
	if stage > cfg.FastRecoverySteps {
		snd.rt += cfg.RateAI
		if snd.rt > cfg.LineRate {
			snd.rt = cfg.LineRate
		}
	}
	snd.rc = (snd.rc + snd.rt) / 2
	if snd.rc > cfg.LineRate {
		snd.rc = cfg.LineRate
	}
}

// notifier is the DCQCN notification point: one CNP per CNPInterval while
// CE-marked traffic keeps arriving.
type notifier struct {
	stack   *Stack
	lastCNP sim.Time
}

func (np *notifier) onData(p *pkt.Packet) {
	if p.ECN != pkt.CE {
		return
	}
	now := np.stack.eng.Now()
	if np.lastCNP != 0 && now-np.lastCNP < np.stack.cfg.CNPInterval {
		return
	}
	np.lastCNP = now
	cnp := np.stack.pool.New(pkt.Packet{
		Flow:   p.Flow,
		Src:    p.Dst,
		Dst:    p.Src,
		Kind:   pkt.Ack,
		ECE:    true,
		Size:   pkt.AckSize,
		DSCP:   0, // CNPs ride the highest priority, as operators configure (§2.2)
		SentAt: now,
	})
	np.stack.hosts[p.Dst].Send(cnp)
}

// Validate sanity-checks a config.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.MinRate > c.LineRate {
		return fmt.Errorf("dcqcn: min rate %v above line rate %v", c.MinRate, c.LineRate)
	}
	if c.G <= 0 || c.G >= 1 {
		return fmt.Errorf("dcqcn: gain g=%v must be in (0,1)", c.G)
	}
	return nil
}

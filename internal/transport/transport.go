// Package transport implements the end-host protocols the paper's
// evaluation drives traffic with: DCTCP (per-ACK ECN echo, g-weighted
// alpha EWMA, fractional window cuts) and ECN* (plain ECN-enabled TCP that
// halves its window once per RTT on ECN-echo), both on top of a NewReno
// loss-recovery engine with minimum-RTO clamping, plus auxiliary sources —
// a constant-bit-rate stream (Figure 5a's 500 Mbps flow) and a ping agent
// (Figure 5b's RTT probes).
//
// A single Stack instance owns all flows of an experiment; hosts hand it
// every delivered packet and it dispatches to the per-flow sender or
// receiver state machines.
package transport

import (
	"fmt"

	"tcn/internal/fabric"
	"tcn/internal/invariant"
	"tcn/internal/obs/prof"
	"tcn/internal/pkt"
	"tcn/internal/sim"
)

// CC selects the congestion-control reaction to ECN marks.
type CC uint8

// Congestion control algorithms.
const (
	// DCTCP scales the window cut by the EWMA-estimated fraction of
	// marked bytes (Alizadeh et al., SIGCOMM 2010).
	DCTCP CC = iota
	// ECNStar is regular ECN-enabled TCP: one half-window cut per RTT
	// in the presence of ECN-echo (Wu et al., CoNEXT 2012).
	ECNStar
	// Reno disables ECN: marks are ignored and only loss reduces the
	// window.
	Reno
)

func (c CC) String() string {
	switch c {
	case DCTCP:
		return "DCTCP"
	case ECNStar:
		return "ECN*"
	default:
		return "Reno"
	}
}

// Config carries the transport parameters of an experiment.
type Config struct {
	// CC selects the congestion control algorithm.
	CC CC
	// MSS is the maximum segment payload in bytes.
	MSS int
	// InitWindow is the initial congestion window in segments (the
	// paper's simulations use 16).
	InitWindow int
	// MaxWindow caps the window in segments (receive-window stand-in);
	// 0 means a large default.
	MaxWindow int
	// RTOMin clamps the retransmission timeout (paper: 5 ms in
	// simulation, 10 ms on the testbed).
	RTOMin sim.Time
	// RTOInit is the timeout before any RTT sample exists.
	RTOInit sim.Time
	// DCTCPg is DCTCP's alpha gain (paper default 1/16).
	DCTCPg float64
	// AckDSCP, if non-nil, overrides the service class of pure ACKs
	// (e.g. to place them in the high-priority queue, as operators do
	// per §2.2); nil means ACKs inherit the flow's class.
	AckDSCP func(f *Flow) uint8
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.MSS == 0 {
		c.MSS = pkt.MSS
	}
	if c.InitWindow == 0 {
		c.InitWindow = 16
	}
	if c.MaxWindow == 0 {
		c.MaxWindow = 4096
	}
	if c.RTOMin == 0 {
		c.RTOMin = 5 * sim.Millisecond
	}
	if c.RTOInit == 0 {
		c.RTOInit = c.RTOMin
	}
	if c.DCTCPg == 0 { //tcnlint:floatexact zero is the "unset" sentinel, never computed
		c.DCTCPg = 1.0 / 16
	}
	return c
}

// Tagger assigns the DSCP (service class / priority queue) of a data
// segment from its byte offset within the flow. Static service classes
// ignore the offset; PIAS-style taggers demote later bytes.
type Tagger func(offset int64) uint8

// StaticTag returns a Tagger that always yields class.
func StaticTag(class uint8) Tagger { return func(int64) uint8 { return class } } //tcnlint:hotpath one closure per flow at setup; the returned Tagger itself is allocation-free

// Flow describes one transfer.
type Flow struct {
	ID   pkt.FlowID
	Src  int   // sending host
	Dst  int   // receiving host
	Size int64 // bytes to deliver

	// Tag assigns per-segment DSCP; nil means class 0.
	Tag Tagger
	// Class is the flow's nominal service, used for per-service metrics
	// (the Tag function may place individual segments elsewhere).
	Class uint8

	// Start is when the application issued the transfer.
	Start sim.Time
	// Done is when the last byte arrived at the receiver (0 while in
	// flight).
	Done sim.Time
	// Timeouts counts RTO expirations experienced by the flow.
	Timeouts int
}

// FCT returns the flow completion time, valid once Done is set.
func (f *Flow) FCT() sim.Time { return f.Done - f.Start }

// Stack manages every flow of an experiment.
type Stack struct {
	eng   *sim.Engine
	cfg   Config
	hosts []*fabric.Host

	// senders/receivers/pingers are demux tables indexed directly by
	// FlowID: NewFlowID hands out sequential IDs and endpoints are never
	// unregistered, so dense slices replace map hashing on the per-packet
	// deliver path. Holes are nil (no endpoint for that ID).
	senders   []*Sender
	receivers []*receiver
	nextID    pkt.FlowID

	// OnDone, if set, is called when a flow completes.
	OnDone func(f *Flow)
	// OnMessage, if set, is called when a persistent-connection message
	// completes.
	OnMessage func(m *Message)
	// OnDeliver, if set, observes every in-order data delivery
	// (goodput accounting).
	OnDeliver func(now sim.Time, f *Flow, bytes int)

	// Timeouts counts RTO expirations across all flows.
	Timeouts int

	pingers []*Pinger

	// pool recycles packets along this stack's path: every segment, ACK,
	// and probe is issued by its New, deliver returns each packet once
	// its handler has consumed it, and a port returns each it drops. Handlers copy the fields they need and
	// never retain the pointer, so the packet is dead when deliver's
	// dispatch returns. The pool is engine-local, like the engine's event
	// freelist — never shared across goroutines.
	pool pkt.Pool

	// startFn is the stored StartAt callback; keeping one long-lived
	// func(any) lets StartAt schedule through AtArg without a per-flow
	// closure.
	startFn func(any)

	// prof and the per-kind scopes, when attached via SetProfiler,
	// bracket deliver's dispatch with cost-profiler scopes so endpoint
	// protocol work (ACK clocking, retransmit arming, new segments it
	// pushes into ports) is attributed to the transport. Nil = off.
	prof      *prof.Profiler
	dataScope *prof.Scope
	ackScope  *prof.Scope
	pingScope *prof.Scope
}

// NewStack wires a transport stack onto the given hosts, installing itself
// as each host's packet handler.
func NewStack(eng *sim.Engine, cfg Config, hosts []*fabric.Host) *Stack {
	s := &Stack{
		eng:   eng,
		cfg:   cfg.withDefaults(),
		hosts: hosts,
	}
	s.startFn = func(v any) { s.Start(v.(*Flow)) }
	for _, h := range hosts {
		h.Handler = s.deliver
	}
	return s
}

// SetProfiler brackets deliver's per-kind dispatch with cost-profiler
// scopes under "transport:data", "transport:ack", and "transport:probe".
// Attach at setup, before traffic flows; the scopes only observe, so
// fingerprints are unchanged.
func (s *Stack) SetProfiler(p *prof.Profiler) {
	s.prof = p
	s.dataScope = p.NewScope("transport:data")
	s.ackScope = p.NewScope("transport:ack")
	s.pingScope = p.NewScope("transport:probe")
}

// Pool exposes the stack's packet freelist (diagnostics and tests).
func (s *Stack) Pool() *pkt.Pool { return &s.pool }

// Config returns the stack's effective configuration.
func (s *Stack) Config() Config { return s.cfg }

// NewFlowID hands out a fresh flow identifier.
func (s *Stack) NewFlowID() pkt.FlowID {
	id := s.nextID
	s.nextID++
	return id
}

// ensureLen grows sl to hold index n-1, zero-filling new entries. The
// backing array at least doubles so sequential registration is amortized
// O(1).
func ensureLen[T any](sl []T, n int) []T {
	if n <= cap(sl) {
		return sl[:max(len(sl), n)]
	}
	nb := make([]T, n, 2*n)
	copy(nb, sl)
	return nb
}

// setSender registers snd under id, growing the demux table as needed.
func (s *Stack) setSender(id pkt.FlowID, snd *Sender) {
	s.senders = ensureLen(s.senders, int(id)+1)
	s.senders[id] = snd
}

// setReceiver registers r under id.
func (s *Stack) setReceiver(id pkt.FlowID, r *receiver) {
	s.receivers = ensureLen(s.receivers, int(id)+1)
	s.receivers[id] = r
}

// setPinger registers pg under id.
func (s *Stack) setPinger(id pkt.FlowID, pg *Pinger) {
	s.pingers = ensureLen(s.pingers, int(id)+1)
	s.pingers[id] = pg
}

// sender returns the sender registered under id, or nil.
func (s *Stack) sender(id pkt.FlowID) *Sender {
	if uint(id) < uint(len(s.senders)) {
		return s.senders[id]
	}
	return nil
}

// Start begins transmitting flow f at the current time. The flow must have
// a fresh ID (use NewFlowID) and Src/Dst inside the host set.
func (s *Stack) Start(f *Flow) *Sender {
	if f.Tag == nil {
		f.Tag = StaticTag(f.Class)
	}
	if f.Size <= 0 {
		panic(fmt.Sprintf("transport: flow %d has size %d", f.ID, f.Size))
	}
	if s.sender(f.ID) != nil {
		panic(fmt.Sprintf("transport: duplicate flow id %d", f.ID))
	}
	f.Start = s.eng.Now()
	snd := newSender(s, f)
	s.setSender(f.ID, snd)
	s.setReceiver(f.ID, newReceiver(s, f))
	snd.sendMore()
	return snd
}

// StartAt schedules flow f to start at time t.
func (s *Stack) StartAt(t sim.Time, f *Flow) {
	s.eng.AtArg(t, s.startFn, f)
}

// deliver dispatches a packet that reached its destination host and then
// recycles it: handlers copy out what they need, so after the dispatch the
// packet is owned by no one and goes back to the pool.
func (s *Stack) deliver(p *pkt.Packet) {
	if invariant.Enabled {
		invariant.Checkf(!p.Poisoned(), "transport: delivering packet %p after its release", p)
	}
	switch p.Kind {
	case pkt.Data:
		if s.prof != nil {
			s.dataScope.Enter()
		}
		if id := uint(p.Flow); id < uint(len(s.receivers)) {
			if r := s.receivers[id]; r != nil {
				r.onData(p)
			}
		}
	case pkt.Ack:
		if s.prof != nil {
			s.ackScope.Enter()
		}
		if id := uint(p.Flow); id < uint(len(s.senders)) {
			if snd := s.senders[id]; snd != nil {
				snd.onAck(p)
			}
		}
	case pkt.Ping:
		if s.prof != nil {
			s.pingScope.Enter()
		}
		s.echoPing(p)
	case pkt.Pong:
		if s.prof != nil {
			s.pingScope.Enter()
		}
		if id := uint(p.Flow); id < uint(len(s.pingers)) {
			if pg := s.pingers[id]; pg != nil {
				pg.onPong(p)
			}
		}
	}
	s.pool.Put(p)
	if s.prof != nil {
		s.prof.Exit()
	}
}

// send pushes a packet into the network from host src.
func (s *Stack) send(src int, p *pkt.Packet) {
	s.hosts[src].Send(p)
}

// finish records flow completion at the receiver.
func (s *Stack) finish(f *Flow) {
	f.Done = s.eng.Now()
	if s.OnDone != nil {
		s.OnDone(f)
	}
}

// ecnCodepoint returns the codepoint data packets carry: ECT(0) when ECN
// is on, Not-ECT for plain Reno.
func (s *Stack) ecnCodepoint() pkt.ECN {
	if s.cfg.CC == Reno {
		return pkt.NotECT
	}
	return pkt.ECT0
}

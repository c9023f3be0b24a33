package transport_test

import (
	"testing"

	"tcn/internal/core"
	"tcn/internal/fabric"
	"tcn/internal/pkt"
	"tcn/internal/sim"
	"tcn/internal/testutil"
	"tcn/internal/transport"
)

// twoHostStar builds the minimal topology for protocol-behaviour tests.
func twoHostStar(eng *sim.Engine, marker func() core.Marker) *fabric.Star {
	return star(eng, 2, 0, marker)
}

// markAll CE-marks every ECT packet unconditionally.
type markAll struct{}

func (markAll) Name() string                                                        { return "mark-all" }
func (markAll) OnEnqueue(sim.Time, int, *pkt.Packet, core.PortState, *core.Verdict) {}
func (markAll) OnDequeue(_ sim.Time, _ int, p *pkt.Packet, _ core.PortState, v *core.Verdict) {
	v.Fire(core.ReasonTCNThreshold, p)
}

func TestDCTCPAlphaConvergesUnderFullMarking(t *testing.T) {
	// A marker that marks everything drives alpha towards 1.
	eng := sim.NewEngine()
	net := twoHostStar(eng, func() core.Marker { return markAll{} })
	st := transport.NewStack(eng, transport.Config{CC: transport.DCTCP, RTOMin: 10 * sim.Millisecond}, net.Hosts)
	snd := st.Start(&transport.Flow{ID: st.NewFlowID(), Src: 0, Dst: 1, Size: 1 << 40})
	eng.RunUntil(300 * sim.Millisecond)
	if a := snd.Alpha(); a < 0.9 {
		t.Fatalf("alpha %v, want ~1 under full marking", a)
	}
}

func TestDCTCPAlphaStaysZeroWithoutMarks(t *testing.T) {
	eng := sim.NewEngine()
	net := twoHostStar(eng, nil)
	st := transport.NewStack(eng, transport.Config{CC: transport.DCTCP, RTOMin: 10 * sim.Millisecond}, net.Hosts)
	snd := st.Start(&transport.Flow{ID: st.NewFlowID(), Src: 0, Dst: 1, Size: 5_000_000})
	eng.RunUntil(sim.Second)
	if !testutil.Eq(snd.Alpha(), 0) {
		t.Fatalf("alpha %v without any marking", snd.Alpha())
	}
	if !snd.Done() {
		t.Fatal("flow should have completed")
	}
}

func TestECNStarGentlerThanFullCut(t *testing.T) {
	// With a single bottleneck flow and TCN, ECN* should still sustain
	// near-full utilization: the half-cut recovers within the run.
	eng := sim.NewEngine()
	net := twoHostStar(eng, func() core.Marker { return core.NewTCN(256 * sim.Microsecond) })
	st := transport.NewStack(eng, transport.Config{CC: transport.ECNStar, RTOMin: 10 * sim.Millisecond}, net.Hosts)
	var got int64
	st.OnDeliver = func(_ sim.Time, _ *transport.Flow, n int) { got += int64(n) }
	st.Start(&transport.Flow{ID: st.NewFlowID(), Src: 0, Dst: 1, Size: 1 << 40})
	eng.RunUntil(400 * sim.Millisecond)
	mbps := float64(got) * 8 / 0.4 / 1e6
	if mbps < 800 {
		t.Fatalf("ECN* goodput %.0f Mbps, want near line rate", mbps)
	}
}

func TestRenoIgnoresMarks(t *testing.T) {
	// Reno traffic is Not-ECT; an aggressive marker must not slow it.
	eng := sim.NewEngine()
	net := twoHostStar(eng, func() core.Marker { return core.NewTCN(sim.Nanosecond) })
	st := transport.NewStack(eng, transport.Config{CC: transport.Reno, RTOMin: 10 * sim.Millisecond}, net.Hosts)
	var got int64
	st.OnDeliver = func(_ sim.Time, _ *transport.Flow, n int) { got += int64(n) }
	st.Start(&transport.Flow{ID: st.NewFlowID(), Src: 0, Dst: 1, Size: 1 << 40})
	eng.RunUntil(200 * sim.Millisecond)
	mbps := float64(got) * 8 / 0.2 / 1e6
	if mbps < 800 {
		t.Fatalf("Reno goodput %.0f Mbps; marks should not affect Not-ECT traffic", mbps)
	}
}

func TestMessagePoolReusesConnections(t *testing.T) {
	eng := sim.NewEngine()
	net := twoHostStar(eng, nil)
	st := transport.NewStack(eng, transport.Config{CC: transport.DCTCP, RTOMin: 10 * sim.Millisecond}, net.Hosts)
	pool := transport.NewPool(st, 2)

	var done []*transport.Message
	st.OnMessage = func(m *transport.Message) { done = append(done, m) }

	// Sequential messages: the pool must not open extra connections.
	for i := 0; i < 5; i++ {
		at := sim.Time(i) * 50 * sim.Millisecond
		eng.At(at, func() {
			pool.Submit(0, 1, &transport.Message{Size: 100_000})
		})
	}
	eng.RunUntil(sim.Second)
	if len(done) != 5 {
		t.Fatalf("completed %d messages, want 5", len(done))
	}
	if pool.Opened != 0 || pool.Conns() != 2 {
		t.Fatalf("pool opened %d extra conns (total %d), want reuse of the warm pair",
			pool.Opened, pool.Conns())
	}
	for _, m := range done {
		if m.FCT() <= 0 || m.FCT() > 10*sim.Millisecond {
			t.Fatalf("implausible message FCT %v", m.FCT())
		}
	}
}

func TestMessagePoolOpensWhenBusy(t *testing.T) {
	eng := sim.NewEngine()
	net := twoHostStar(eng, nil)
	st := transport.NewStack(eng, transport.Config{CC: transport.DCTCP, RTOMin: 10 * sim.Millisecond}, net.Hosts)
	pool := transport.NewPool(st, 1)
	completed := 0
	st.OnMessage = func(m *transport.Message) { completed++ }

	// Two big messages at once: the second needs a fresh connection.
	pool.Submit(0, 1, &transport.Message{Size: 5_000_000})
	pool.Submit(0, 1, &transport.Message{Size: 5_000_000})
	if pool.Opened != 1 {
		t.Fatalf("opened %d, want 1", pool.Opened)
	}
	eng.RunUntil(sim.Second)
	if completed != 2 {
		t.Fatalf("completed %d messages", completed)
	}
}

func TestMessagesShareWarmWindow(t *testing.T) {
	// The second message on a connection must start from the
	// congestion state the first one left, not from a fresh IW —
	// unless the connection idled long enough for slow-start restart.
	eng := sim.NewEngine()
	net := twoHostStar(eng, nil)
	st := transport.NewStack(eng, transport.Config{CC: transport.DCTCP, InitWindow: 2, RTOMin: 10 * sim.Millisecond}, net.Hosts)
	c := st.NewConn(0, 1)

	var fcts []sim.Time
	st.OnMessage = func(m *transport.Message) { fcts = append(fcts, m.FCT()) }

	// Chain the second message immediately on completion of the first,
	// so the connection cannot hit slow-start restart, and use a size
	// where slow start (IW=2) dominates the cold FCT.
	const msgSize = 60_000
	st.OnMessage = func(m *transport.Message) {
		fcts = append(fcts, m.FCT())
		if len(fcts) == 1 {
			c.Send(&transport.Message{Size: msgSize})
		}
	}
	c.Send(&transport.Message{Size: msgSize})
	eng.RunUntil(sim.Second)
	if len(fcts) != 2 {
		t.Fatalf("completed %d messages", len(fcts))
	}
	if float64(fcts[1]) >= 0.8*float64(fcts[0]) {
		t.Fatalf("warm message FCT %v should clearly beat cold %v (IW=2 slow start)", fcts[1], fcts[0])
	}
}

func TestSlowStartRestartAfterIdle(t *testing.T) {
	eng := sim.NewEngine()
	net := twoHostStar(eng, nil)
	st := transport.NewStack(eng, transport.Config{CC: transport.DCTCP, InitWindow: 4, RTOMin: 10 * sim.Millisecond}, net.Hosts)
	c := st.NewConn(0, 1)
	c.Send(&transport.Message{Size: 5_000_000})
	eng.RunUntil(200 * sim.Millisecond)
	warm := c.Sender().Cwnd()
	if warm <= 8 {
		t.Fatalf("cwnd %v should have grown past IW", warm)
	}
	// Idle far beyond the RTO, then send again: window must restart.
	eng.RunUntil(2 * sim.Second)
	c.Send(&transport.Message{Size: 10_000})
	if got := c.Sender().Cwnd(); got > 4 {
		t.Fatalf("cwnd %v after idle, want collapsed to IW=4", got)
	}
	eng.RunUntil(3 * sim.Second)
	if !c.Idle() {
		t.Fatal("second message should complete")
	}
}

// onTransmit is a port observer that calls itself on every departure.
type onTransmit func(p *pkt.Packet)

func (onTransmit) Enqueue(sim.Time, int, *pkt.Packet)                {}
func (onTransmit) Verdict(sim.Time, int, *pkt.Packet, *core.Verdict) {}
func (f onTransmit) Transmit(_ sim.Time, _ int, p *pkt.Packet)       { f(p) }

func TestPIASMessageTagging(t *testing.T) {
	// Observe actual DSCPs on the wire for a message crossing the PIAS
	// threshold.
	eng := sim.NewEngine()
	net := twoHostStar(eng, nil)
	seen := map[uint8]int{}
	net.Switch.Port(1).Observe(onTransmit(func(p *pkt.Packet) {
		if p.Kind == pkt.Data {
			seen[p.DSCP] += p.Len
		}
	}))
	st := transport.NewStack(eng, transport.Config{CC: transport.DCTCP, RTOMin: 10 * sim.Millisecond}, net.Hosts)
	c := st.NewConn(0, 1)
	c.Send(&transport.Message{
		Size:  300_000,
		Class: 2,
		Tag: func(off int64) uint8 {
			if off < 100_000 {
				return 0
			}
			return 2
		},
	})
	eng.RunUntil(sim.Second)
	if seen[0] < 95_000 || seen[0] > 105_000 {
		t.Fatalf("high-priority bytes %d, want ~100000", seen[0])
	}
	if seen[2] < 195_000 || seen[2] > 205_000 {
		t.Fatalf("service-class bytes %d, want ~200000", seen[2])
	}
}

func TestDupACKTriggersFastRetransmitNotTimeout(t *testing.T) {
	// Deterministically drop one mid-flow segment at the receiver; the
	// packets behind it generate duplicate ACKs and recovery must use a
	// fast retransmit, not an RTO.
	eng := sim.NewEngine()
	net := star(eng, 2, 0, nil)
	st := transport.NewStack(eng, transport.Config{CC: transport.Reno, InitWindow: 16, RTOMin: 50 * sim.Millisecond}, net.Hosts)
	inner := net.Hosts[1].Handler
	dropped := false
	net.Hosts[1].Handler = func(p *pkt.Packet) {
		if !dropped && p.Kind == pkt.Data && p.Seq == 10*1460 {
			dropped = true
			return
		}
		inner(p)
	}
	var done *transport.Flow
	st.OnDone = func(f *transport.Flow) { done = f }
	snd := st.Start(&transport.Flow{ID: st.NewFlowID(), Src: 0, Dst: 1, Size: 60_000})
	eng.RunUntil(sim.Second)
	if done == nil {
		t.Fatal("flow did not complete")
	}
	if !dropped {
		t.Fatal("the probe drop never happened")
	}
	if snd.FastRetransmits != 1 {
		t.Fatalf("fast retransmits = %d, want 1", snd.FastRetransmits)
	}
	if done.Timeouts != 0 {
		t.Fatalf("recovery used %d timeouts; dupacks should have sufficed", done.Timeouts)
	}
}

func TestAckDSCPOverride(t *testing.T) {
	eng := sim.NewEngine()
	net := twoHostStar(eng, nil)
	var ackDSCP []uint8
	net.Switch.Port(0).Observe(onTransmit(func(p *pkt.Packet) {
		if p.Kind == pkt.Ack {
			ackDSCP = append(ackDSCP, p.DSCP)
		}
	}))
	st := transport.NewStack(eng, transport.Config{
		CC:      transport.DCTCP,
		RTOMin:  10 * sim.Millisecond,
		AckDSCP: func(*transport.Flow) uint8 { return 0 },
	}, net.Hosts)
	st.Start(&transport.Flow{ID: st.NewFlowID(), Src: 0, Dst: 1, Size: 100_000, Class: 5})
	eng.RunUntil(sim.Second)
	if len(ackDSCP) == 0 {
		t.Fatal("no ACKs observed")
	}
	for _, d := range ackDSCP {
		if d != 0 {
			t.Fatalf("ACK rode class %d, want 0", d)
		}
	}
}

func TestMaxWindowCapsInFlight(t *testing.T) {
	eng := sim.NewEngine()
	net := twoHostStar(eng, nil)
	st := transport.NewStack(eng, transport.Config{
		CC: transport.DCTCP, MaxWindow: 8, RTOMin: 10 * sim.Millisecond,
	}, net.Hosts)
	// Count the largest burst in the switch queue: with an 8-segment
	// window cap over a ~250us RTT path the sender can never have more
	// than 8 segments outstanding.
	maxQ := 0
	var poll func()
	poll = func() {
		if q := net.Switch.Port(1).PortBytes(); q > maxQ {
			maxQ = q
		}
		if eng.Len() > 1 {
			eng.After(10*sim.Microsecond, poll)
		}
	}
	eng.After(0, poll)
	st.Start(&transport.Flow{ID: st.NewFlowID(), Src: 0, Dst: 1, Size: 10_000_000})
	eng.RunUntil(sim.Second)
	if maxQ > 8*1500 {
		t.Fatalf("queue %d exceeds the window cap's worth of data", maxQ)
	}
	// And the window cap throttles throughput below line rate:
	// 8 × 1460B per ~250us ≈ 374 Mbps, so a 10 MB flow takes ~210ms+.
	if eng.Now() < 150*sim.Millisecond {
		t.Fatalf("flow finished at %v, faster than the window cap allows", eng.Now())
	}
}

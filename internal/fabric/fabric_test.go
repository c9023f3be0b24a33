package fabric

import (
	"fmt"
	"strings"
	"testing"

	"tcn/internal/core"
	"tcn/internal/pkt"
	"tcn/internal/sim"
)

func TestRateSerialize(t *testing.T) {
	cases := []struct {
		r     Rate
		bytes int
		want  sim.Time
	}{
		{Gbps, 1500, 12 * sim.Microsecond},
		{10 * Gbps, 1500, 1200 * sim.Nanosecond},
		{Mbps, 125, sim.Millisecond},
	}
	for _, c := range cases {
		if got := c.r.Serialize(c.bytes); got != c.want {
			t.Errorf("%v.Serialize(%d) = %v, want %v", c.r, c.bytes, got, c.want)
		}
	}
}

func TestRateBDP(t *testing.T) {
	if got := (10 * Gbps).BDP(100 * sim.Microsecond); got != 125_000 {
		t.Fatalf("BDP = %d, want 125000", got)
	}
	if got := Gbps.BDP(256 * sim.Microsecond); got != 32_000 {
		t.Fatalf("BDP = %d, want 32000", got)
	}
}

func TestRateString(t *testing.T) {
	for r, want := range map[Rate]string{
		Gbps: "1Gbps", 10 * Gbps: "10Gbps", 500 * Mbps: "500Mbps", 64 * Kbps: "64Kbps",
	} {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", r, got, want)
		}
	}
}

// sink records received packets.
type sink struct {
	pkts  []*pkt.Packet
	times []sim.Time
	eng   *sim.Engine
}

func (s *sink) Receive(p *pkt.Packet) {
	s.pkts = append(s.pkts, p)
	s.times = append(s.times, s.eng.Now())
}

func TestPortStoreAndForwardTiming(t *testing.T) {
	eng := sim.NewEngine()
	sk := &sink{eng: eng}
	port := NewPort(eng, PortConfig{
		Rate:      Gbps,
		PropDelay: 10 * sim.Microsecond,
		Queues:    1,
	}, sk)
	port.Send(&pkt.Packet{Size: 1500, ECN: pkt.ECT0})
	eng.Run()
	if len(sk.pkts) != 1 {
		t.Fatalf("received %d packets", len(sk.pkts))
	}
	// 1500B at 1Gbps = 12us serialization + 10us propagation.
	if sk.times[0] != 22*sim.Microsecond {
		t.Fatalf("arrival at %v, want 22us", sk.times[0])
	}
}

func TestPortBackToBackTransmissions(t *testing.T) {
	eng := sim.NewEngine()
	sk := &sink{eng: eng}
	port := NewPort(eng, PortConfig{Rate: Gbps, Queues: 1}, sk)
	for i := 0; i < 3; i++ {
		port.Send(&pkt.Packet{Size: 1500, Seq: int64(i)})
	}
	eng.Run()
	if len(sk.pkts) != 3 {
		t.Fatalf("received %d packets", len(sk.pkts))
	}
	// Packets serialize back to back: 12, 24, 36us.
	for i, want := range []sim.Time{12, 24, 36} {
		if sk.times[i] != want*sim.Microsecond {
			t.Fatalf("packet %d arrived at %v, want %vus", i, sk.times[i], want)
		}
		if sk.pkts[i].Seq != int64(i) {
			t.Fatalf("packet order broken: %v", sk.pkts[i])
		}
	}
}

func TestPortDropsWhenFull(t *testing.T) {
	eng := sim.NewEngine()
	sk := &sink{eng: eng}
	port := NewPort(eng, PortConfig{Rate: Gbps, Queues: 1, BufferBytes: 3000}, sk)
	ob := &recorder{}
	port.Observe(ob)
	for i := 0; i < 5; i++ {
		port.Send(&pkt.Packet{Size: 1500})
	}
	eng.Run()
	// First packet enters service immediately (popped from the buffer),
	// leaving room for two more; the rest drop.
	if len(sk.pkts) != 3 || ob.drops != 2 {
		t.Fatalf("delivered %d dropped %d, want 3/2", len(sk.pkts), ob.drops)
	}
	if port.Buffer().TotalDrops() != 2 {
		t.Fatal("drop counter mismatch")
	}
}

// TestPortReturnsDroppedPacketToPool checks the drop path: a packet the
// buffer rejects goes back to the pool it came from, after the observers
// have seen its drop verdict, and the buffer still counts the drop.
func TestPortReturnsDroppedPacketToPool(t *testing.T) {
	eng := sim.NewEngine()
	sk := &sink{eng: eng}
	port := NewPort(eng, PortConfig{Rate: Gbps, Queues: 1, BufferBytes: 1500}, sk)
	var pool pkt.Pool
	ob := &dropWatch{pool: &pool, liveAtDrop: -1}
	port.Observe(ob)
	var sent []*pkt.Packet
	for i := 0; i < 3; i++ {
		p := pool.New(pkt.Packet{Size: 1500, Seq: int64(i), ECN: pkt.ECT0})
		sent = append(sent, p)
		port.Send(p)
	}
	// The first packet enters service at once and the second fills the
	// buffer, so the third drops.
	if ob.drops != 1 || ob.seq != 2 || ob.liveAtDrop != 0 {
		t.Fatalf("observer saw %d drops (last seq %d, pool held %d at the verdict), want 1 drop of seq 2 before its release",
			ob.drops, ob.seq, ob.liveAtDrop)
	}
	if port.Buffer().TotalDrops() != 1 {
		t.Fatalf("buffer counted %d drops, want 1", port.Buffer().TotalDrops())
	}
	if pool.Live() != 1 {
		t.Fatalf("pool holds %d packets after the drop, want 1", pool.Live())
	}
	if p := pool.New(pkt.Packet{}); p != sent[2] {
		t.Fatal("the pool did not reissue the dropped packet")
	}
	eng.Run()
	if len(sk.pkts) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(sk.pkts))
	}
}

// dropWatch is a test observer that records the last drop verdict and
// how many packets its pool held at that moment.
type dropWatch struct {
	pool       *pkt.Pool
	drops      int
	seq        int64
	liveAtDrop int
}

func (d *dropWatch) Enqueue(sim.Time, int, *pkt.Packet) {}
func (d *dropWatch) Verdict(_ sim.Time, _ int, p *pkt.Packet, v *core.Verdict) {
	if v.Dropped {
		d.drops++
		d.seq = p.Seq
		d.liveAtDrop = d.pool.Live()
	}
}
func (d *dropWatch) Transmit(sim.Time, int, *pkt.Packet) {}

func TestPortStampsEnqueueTime(t *testing.T) {
	eng := sim.NewEngine()
	sk := &sink{eng: eng}
	port := NewPort(eng, PortConfig{Rate: Gbps, Queues: 1}, sk)
	eng.At(55*sim.Microsecond, func() {
		port.Send(&pkt.Packet{Size: 100})
	})
	eng.Run()
	if sk.pkts[0].EnqueuedAt != 55*sim.Microsecond {
		t.Fatalf("EnqueuedAt = %v, want 55us", sk.pkts[0].EnqueuedAt)
	}
}

func TestPortMarkerPipelineOrder(t *testing.T) {
	// The dequeue marker must see the packet after the enqueue marker
	// and after the scheduler pops it (§5 pipeline order).
	var order []string
	m := &recordingMarker{onEnq: func() { order = append(order, "enq") },
		onDeq: func() { order = append(order, "deq") }}
	eng := sim.NewEngine()
	sk := &sink{eng: eng}
	port := NewPort(eng, PortConfig{Rate: Gbps, Queues: 1, Marker: m}, sk)
	port.Observe(&recorder{onTx: func() { order = append(order, "tx") }})
	port.Send(&pkt.Packet{Size: 100})
	eng.Run()
	want := []string{"enq", "deq", "tx"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("pipeline order %v, want %v", order, want)
	}
}

type recordingMarker struct{ onEnq, onDeq func() }

// recorder is a test observer: it counts drops and calls onTx, if set,
// on every transmission.
type recorder struct {
	drops int
	onTx  func()
}

func (r *recorder) Enqueue(sim.Time, int, *pkt.Packet) {}
func (r *recorder) Verdict(_ sim.Time, _ int, _ *pkt.Packet, v *core.Verdict) {
	if v.Dropped {
		r.drops++
	}
}
func (r *recorder) Transmit(sim.Time, int, *pkt.Packet) {
	if r.onTx != nil {
		r.onTx()
	}
}

func (r *recordingMarker) Name() string { return "recording" }
func (r *recordingMarker) OnEnqueue(sim.Time, int, *pkt.Packet, core.PortState, *core.Verdict) {
	r.onEnq()
}
func (r *recordingMarker) OnDequeue(sim.Time, int, *pkt.Packet, core.PortState, *core.Verdict) {
	r.onDeq()
}

func TestClassifyByDSCPClamps(t *testing.T) {
	c := ClassifyByDSCP(4)
	if c(&pkt.Packet{DSCP: 2}) != 2 {
		t.Fatal("in-range DSCP")
	}
	if c(&pkt.Packet{DSCP: 9}) != 3 {
		t.Fatal("out-of-range DSCP should clamp to last queue")
	}
}

func TestStarRouting(t *testing.T) {
	eng := sim.NewEngine()
	st := NewStar(eng, StarConfig{
		Hosts: 4,
		Rate:  Gbps,
		SwitchPort: func() PortConfig {
			return PortConfig{Queues: 1}
		},
	})
	var got []int
	for i, h := range st.Hosts {
		i := i
		h.Handler = func(p *pkt.Packet) { got = append(got, i) }
	}
	st.Hosts[0].Send(&pkt.Packet{Src: 0, Dst: 3, Size: 100})
	st.Hosts[2].Send(&pkt.Packet{Src: 2, Dst: 1, Size: 100})
	eng.Run()
	if len(got) != 2 || got[0] != 3 && got[1] != 3 {
		t.Fatalf("deliveries: %v", got)
	}
}

func TestHostDelayAppliedOnReceive(t *testing.T) {
	eng := sim.NewEngine()
	st := NewStar(eng, StarConfig{
		Hosts:     2,
		Rate:      Gbps,
		HostDelay: 100 * sim.Microsecond,
		SwitchPort: func() PortConfig {
			return PortConfig{Queues: 1}
		},
	})
	var at sim.Time
	st.Hosts[1].Handler = func(p *pkt.Packet) { at = eng.Now() }
	st.Hosts[0].Send(&pkt.Packet{Src: 0, Dst: 1, Size: 1500})
	eng.Run()
	// 2 hops × 12us serialization + 100us host delay.
	want := 124 * sim.Microsecond
	if at != want {
		t.Fatalf("delivery at %v, want %v", at, want)
	}
}

func TestLeafSpineRoutingAndECMP(t *testing.T) {
	eng := sim.NewEngine()
	ls := NewLeafSpine(eng, LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 2,
		HostRate: 10 * Gbps, SpineRate: 10 * Gbps,
		SwitchPort: func() PortConfig { return PortConfig{Queues: 1} },
	})
	if len(ls.Hosts) != 4 {
		t.Fatalf("hosts = %d", len(ls.Hosts))
	}
	recv := map[int]int{}
	for i, h := range ls.Hosts {
		i := i
		h.Handler = func(p *pkt.Packet) { recv[i]++ }
	}
	// Intra-leaf: 2 hops. Inter-leaf: 4 hops.
	var hops []int
	probe := func(src, dst int, flow pkt.FlowID) {
		p := &pkt.Packet{Src: src, Dst: dst, Flow: flow, Size: 100}
		ls.Hosts[src].Send(p)
		eng.Run()
		hops = append(hops, p.Hops)
	}
	probe(0, 1, 1) // same leaf
	probe(0, 2, 2) // cross fabric
	if recv[1] != 1 || recv[2] != 1 {
		t.Fatalf("deliveries: %v", recv)
	}
	if hops[0] != 1 || hops[1] != 3 {
		t.Fatalf("hop counts %v, want [1 3] (switches traversed)", hops)
	}

	// ECMP: different flows between the same pair spread across spines;
	// the same flow always takes the same spine.
	upA := ls.Leaves[0].Port(2) // to spine 0
	upB := ls.Leaves[0].Port(3) // to spine 1
	base := upA.TxPackets[0] + upB.TxPackets[0]
	for f := pkt.FlowID(0); f < 64; f++ {
		probe(0, 2, 100+f)
	}
	a := upA.TxPackets[0]
	b := upB.TxPackets[0]
	if a+b-base != 64 {
		t.Fatalf("uplink accounting: %d", a+b-base)
	}
	if a == 0 || b == 0 {
		t.Fatal("ECMP never used one of the spines across 64 flows")
	}
}

func TestLeafSpineSwitchPorts(t *testing.T) {
	eng := sim.NewEngine()
	ls := NewLeafSpine(eng, LeafSpineConfig{
		Leaves: 2, Spines: 3, HostsPerLeaf: 4,
		HostRate: Gbps, SpineRate: Gbps,
		SwitchPort: func() PortConfig { return PortConfig{Queues: 1} },
	})
	// Leaf ports: 4 down + 3 up each; spine ports: 2 down each.
	want := 2*(4+3) + 3*2
	if got := len(ls.SwitchPorts()); got != want {
		t.Fatalf("switch ports = %d, want %d", got, want)
	}
}

func TestPortStateInterface(t *testing.T) {
	eng := sim.NewEngine()
	port := NewPort(eng, PortConfig{Rate: 2 * Gbps, Queues: 3}, &sink{eng: eng})
	var st core.PortState = port
	if st.NumQueues() != 3 || st.LinkRate() != 2e9 {
		t.Fatal("PortState accessors")
	}
}

// TestCheckConservationReportsUnbalancedPort unbalances one queue's
// transmit tally by hand and expects the switch check to name the
// switch, port and queue.
func TestCheckConservationReportsUnbalancedPort(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 7)
	sw.AddPort(NewPort(eng, PortConfig{Rate: Gbps, Queues: 2}, &sink{eng: eng}))
	pt := NewPort(eng, PortConfig{Rate: Gbps, Queues: 2, BufferBytes: 3000}, &sink{eng: eng})
	sw.AddPort(pt)
	for i := 0; i < 5; i++ {
		pt.Send(&pkt.Packet{Size: 1500, DSCP: 1})
	}
	eng.RunUntil(20 * sim.Microsecond) // two sent, one buffered, two dropped
	sw.CheckConservation()

	pt.TxBytes[1]--
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "sw7.p1") || !strings.Contains(msg, "queue 1") {
			t.Fatalf("violation report %q does not name sw7.p1 queue 1", msg)
		}
	}()
	sw.CheckConservation()
	t.Fatal("unbalanced port not reported")
}

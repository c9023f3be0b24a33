package experiments

import (
	"testing"

	"tcn/internal/aqm"
	"tcn/internal/core"
	"tcn/internal/fabric"
	"tcn/internal/pkt"
	"tcn/internal/sim"
	"tcn/internal/transport"
)

func baseParams() PortParams {
	return PortParams{
		Queues:        4,
		HighQueues:    1,
		Buffer:        96_000,
		Quantum:       1500,
		RTTLambda:     256 * sim.Microsecond,
		KBytes:        32_000,
		CoDelTarget:   50 * sim.Microsecond,
		CoDelInterval: sim.Millisecond,
		DqThresh:      10_000,
		OracleK:       []int{8_000, 8_000, 8_000, 8_000},
	}
}

func TestSchedulerFactoryCoversAllKinds(t *testing.T) {
	pp := baseParams()
	for kind, wantName := range map[SchedKind]string{
		SchedFIFO:    "FIFO",
		SchedDWRR:    "DWRR",
		SchedWFQ:     "WFQ",
		SchedSPDWRR:  "SP/DWRR",
		SchedSPWFQ:   "SP/WFQ",
		SchedPIFOLAS: "PIFO",
	} {
		s := pp.NewScheduler(kind)
		if s.Name() != wantName {
			t.Errorf("%s: built %q, want %q", kind, s.Name(), wantName)
		}
	}
}

func TestSchedulerFactoryRejectsUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	baseParams().NewScheduler("bogus")
}

func TestMarkerFactoryCoversAllSchemes(t *testing.T) {
	pp := baseParams()
	rng := sim.NewRand(1)
	dwrr := pp.NewScheduler(SchedDWRR)
	for scheme, wantName := range map[Scheme]string{
		SchemeTCN:     "TCN",
		SchemeTCNHW:   "TCN-hw",
		SchemeCoDel:   "CoDel",
		SchemeMQECN:   "MQ-ECN",
		SchemeRED:     "RED-queue",
		SchemeREDDeq:  "RED-queue-deq",
		SchemePortRED: "RED-port",
		SchemeDynRED:  "RED-dyn",
		SchemeOracle:  "RED-ideal",
		SchemeNone:    "none",
	} {
		m := pp.NewMarker(scheme, dwrr, rng)
		if m.Name() != wantName {
			t.Errorf("%s: built %q, want %q", scheme, m.Name(), wantName)
		}
	}
}

func TestMarkerFactoryRejectsUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	baseParams().NewMarker("bogus", nil, nil)
}

func TestFactoryBuildsFreshInstancesPerPort(t *testing.T) {
	pp := baseParams()
	f := pp.Factory(SchemeTCN, SchedDWRR, sim.NewRand(1))
	a, b := f(), f()
	if a.Scheduler == b.Scheduler {
		t.Fatal("ports must not share a scheduler instance")
	}
	if a.Marker == b.Marker {
		t.Fatal("ports must not share a marker instance")
	}
}

func TestFactoryRejectsUnsupportedCombination(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	baseParams().Factory(SchemeMQECN, SchedWFQ, sim.NewRand(1))
}

func TestMarkCountReadsEveryMarker(t *testing.T) {
	pp := baseParams()
	rng := sim.NewRand(1)
	dwrr := pp.NewScheduler(SchedDWRR)
	for _, scheme := range []Scheme{
		SchemeTCN, SchemeTCNHW, SchemeCoDel, SchemeMQECN, SchemeRED,
		SchemeREDDeq, SchemePortRED, SchemeDynRED, SchemeOracle, SchemeNone,
	} {
		if got := markCount(pp.NewMarker(scheme, dwrr, rng)); got != 0 {
			t.Errorf("%s: fresh marker count %d", scheme, got)
		}
	}
}

// TestPoolREDCrossPortIntegration drives the §3.2 per-service-pool
// failure end to end: traffic congesting port B's buffer causes CE marks
// on packets traversing the *otherwise idle* port A, throttling an
// innocent service.
func TestPoolREDCrossPortIntegration(t *testing.T) {
	eng := sim.NewEngine()
	pool := aqm.NewPoolRED(30_000)
	net := fabric.NewStar(eng, fabric.StarConfig{
		Hosts:     5,
		Rate:      fabric.Gbps,
		Prop:      2500 * sim.Nanosecond,
		HostDelay: 120 * sim.Microsecond,
		SwitchPort: func() fabric.PortConfig {
			return fabric.PortConfig{Queues: 1, BufferBytes: 96_000, Marker: pool}
		},
	})
	// All switch ports share the pool.
	for i := 0; i < net.Switch.NumPorts(); i++ {
		pool.Register(net.Switch.Port(i))
	}
	st := transport.NewStack(eng, transport.Config{CC: transport.DCTCP, RTOMin: 10 * sim.Millisecond}, net.Hosts)

	marked, data := 0, 0
	net.Switch.Port(3).Observe(onTransmit(func(p *pkt.Packet) {
		if p.Kind == pkt.Data {
			data++
			if p.ECN == pkt.CE {
				marked++
			}
		}
	}))

	// Port 4 is congested by two senders' worth of flows; port 3
	// carries a single flow that could never fill its own queue.
	for i := 0; i < 8; i++ {
		st.Start(&transport.Flow{ID: st.NewFlowID(), Src: i % 2, Dst: 4, Size: 1 << 40})
	}
	st.Start(&transport.Flow{ID: st.NewFlowID(), Src: 2, Dst: 3, Size: 1 << 40})
	eng.RunUntil(200 * sim.Millisecond)

	if data == 0 {
		t.Fatal("no traffic on the victim port")
	}
	frac := float64(marked) / float64(data)
	if frac < 0.05 {
		t.Fatalf("victim port marking fraction %.3f; pool pressure should leak across ports", frac)
	}
}

// onTransmit is a port observer that calls itself on every departure.
type onTransmit func(p *pkt.Packet)

func (onTransmit) Enqueue(sim.Time, int, *pkt.Packet)                {}
func (onTransmit) Verdict(sim.Time, int, *pkt.Packet, *core.Verdict) {}
func (f onTransmit) Transmit(_ sim.Time, _ int, p *pkt.Packet)       { f(p) }

package tcn

import (
	"testing"

	"tcn/internal/core"
	"tcn/internal/digest"
	"tcn/internal/fabric"
	"tcn/internal/invariant"
	"tcn/internal/obs"
	"tcn/internal/obs/flight"
	"tcn/internal/sim"
	"tcn/internal/trace"
	"tcn/internal/transport"
)

// TestPacketPathZeroAllocWithLedgerAttached pins the observability
// contract of the attribution layer: with all five per-packet observers —
// a decision ledger, a pipeline recorder, a packet tracer, the registry's
// stats bundle and the flight recorder's span tracker — on every switch
// port, the steady-state packet path still allocates nothing. Verdicts
// live in a per-port scratch struct, ledger cells, rings and span slots
// are created during warm-up, and recording is copy-into-preallocated-
// memory from then on.
func TestPacketPathZeroAllocWithLedgerAttached(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant.Checkf boxes its arguments; allocation-freedom only holds in normal builds")
	}
	eng := sim.NewEngine()
	star := fabric.NewStar(eng, fabric.StarConfig{
		Hosts: 2,
		Rate:  10 * fabric.Gbps,
		Prop:  10 * sim.Microsecond,
		SwitchPort: func() fabric.PortConfig {
			// The switch egress is the bottleneck (hosts inject at 10 Gbps)
			// so a standing queue forms and TCN actually fires.
			return fabric.PortConfig{Queues: 1, Rate: fabric.Gbps, Marker: core.NewTCN(50 * sim.Microsecond)}
		},
	})
	ledger := trace.NewLedger(1 << 12)
	pipeline := trace.NewPipeline(1 << 12)
	tracer := trace.New(1 << 12)
	reg := obs.NewRegistry()
	rec := flight.New(flight.Config{})
	for i := 0; i < star.Switch.NumPorts(); i++ {
		label := "sw.p0"
		if i == 1 {
			label = "sw.p1"
		}
		p := star.Switch.Port(i)
		tracer.AttachPort(label, p)
		ledger.AttachPort(label, p)
		pipeline.AttachPort(label, p)
		p.Instrument(reg, label)
		flight.AttachPortSpans(rec, p)
	}
	st := transport.NewStack(eng, transport.Config{CC: transport.DCTCP}, star.Hosts)
	st.Start(&transport.Flow{ID: st.NewFlowID(), Src: 0, Dst: 1, Size: 1 << 40})
	eng.RunUntil(50 * sim.Millisecond) // warm pools, rings, and ledger cells

	allocs := testing.AllocsPerRun(5, func() {
		eng.RunUntil(eng.Now() + sim.Millisecond)
	})
	if allocs != 0 { //tcnlint:floatexact AllocsPerRun must be exactly zero
		t.Fatalf("steady-state packet path allocates %.1f/op with attribution attached, want 0", allocs)
	}
	if ledger.Marked() == 0 {
		t.Fatal("scenario never marked: the zero-alloc claim was not exercised")
	}
	if pipeline.Recorded() == 0 {
		t.Fatal("pipeline recorded nothing")
	}
	if reg.Counter("sw.p1.q0.tx_packets").Value() == 0 {
		t.Fatal("registry bundle counted nothing")
	}
	if spans := rec.Spans().Spans(); len(spans) != 1 || spans[0].Packets == 0 {
		t.Fatalf("span tracker saw %+v, want one flow with transmissions", spans)
	}
	// The attribution stayed causally complete while allocation-free.
	if ledger.Marked() != tracer.Count(trace.Mark) {
		t.Fatalf("ledger marked=%d, tracer marks=%d", ledger.Marked(), tracer.Count(trace.Mark))
	}
	for _, e := range ledger.Events() {
		if e.V.Reason == core.ReasonUnknown {
			t.Fatalf("verdict without a reason: %+v", e)
		}
	}
}

// TestPacketPathZeroAllocWithFingerprintAttached pins the same contract
// for run fingerprinting: with per-component digest chains snapshotting
// every simulated millisecond (and the per-event fine digests live), the
// steady-state packet path still allocates nothing. The recorder's
// record store and every scope's scratch hash are preallocated; an epoch
// snapshot is pure field reads folded through the hash.
func TestPacketPathZeroAllocWithFingerprintAttached(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant.Checkf boxes its arguments; allocation-freedom only holds in normal builds")
	}
	eng := sim.NewEngine()
	star := fabric.NewStar(eng, fabric.StarConfig{
		Hosts: 2,
		Rate:  10 * fabric.Gbps,
		Prop:  10 * sim.Microsecond,
		SwitchPort: func() fabric.PortConfig {
			return fabric.PortConfig{Queues: 1, Rate: fabric.Gbps, Marker: core.NewTCN(50 * sim.Microsecond)}
		},
	})
	rec := digest.New(digest.Config{EpochNs: int64(sim.Millisecond), Fine: true, FineAtEpoch: 1 << 30})
	sc := rec.ScopeFor(eng)
	sc.Register(digest.ComponentEngine, "engine", eng)
	for i := 0; i < star.Switch.NumPorts(); i++ {
		label := "sw.p0"
		if i == 1 {
			label = "sw.p1"
		}
		sc.Register(digest.ComponentPort, label, star.Switch.Port(i))
	}
	// The epoch ticker, exactly as the experiment runners wire it.
	var tick func()
	tick = func() {
		sc.Snapshot(int64(eng.Now()))
		eng.After(sim.Millisecond, tick)
	}
	eng.After(0, tick)
	// Fine mode armed far in the future: the steady-state cost of fine
	// support is one boolean test per event, and it must stay free too.
	eng.AddPostEvent(func(now sim.Time, executed uint64) { sc.FineSnapshot(executed, int64(now)) })

	st := transport.NewStack(eng, transport.Config{CC: transport.DCTCP}, star.Hosts)
	st.Start(&transport.Flow{ID: st.NewFlowID(), Src: 0, Dst: 1, Size: 1 << 40})
	eng.RunUntil(50 * sim.Millisecond) // warm pools and the record store

	allocs := testing.AllocsPerRun(5, func() {
		eng.RunUntil(eng.Now() + sim.Millisecond)
	})
	if allocs != 0 { //tcnlint:floatexact AllocsPerRun must be exactly zero
		t.Fatalf("steady-state packet path allocates %.1f/op with fingerprinting attached, want 0", allocs)
	}
	if rec.Len() == 0 {
		t.Fatal("recorder captured no epoch records: the zero-alloc claim was not exercised")
	}
	recs := rec.Records()
	if recs[len(recs)-1].Digest == 0 && recs[0].Digest == 0 {
		t.Fatal("digest chain never folded any state")
	}
}

package experiments

import (
	"tcn/internal/fabric"
	"tcn/internal/metrics"
	"tcn/internal/sim"
	"tcn/internal/transport"
)

// Fig5Config parameterizes the static-flow experiment (§6.1.1): SP/WFQ
// with three queues — queue 0 strict high priority carrying a 500 Mbps
// application-limited stream, queues 1 and 2 equal-weight WFQ carrying 1
// and 4 DCTCP flows respectively. The SP/WFQ policy dictates a 500/250/250
// Mbps split regardless of flow counts.
type Fig5Config struct {
	// Scheme is the marking scheme under test.
	Scheme Scheme
	// Stage is the delay between starting each sender group.
	Stage sim.Time
	// Duration is the total run length.
	Duration sim.Time
	// Seed feeds all randomness.
	Seed int64
	// Obs optionally instruments the run; nil = bare.
	Obs *Obs
}

// DefaultFig5 returns the paper's configuration.
func DefaultFig5() Fig5Config {
	return Fig5Config{
		Scheme:   SchemeTCN,
		Stage:    sim.Second,
		Duration: 4 * sim.Second,
		Seed:     1,
	}
}

// Fig5aResult is the goodput-versus-time figure plus the steady-state
// split once all three services are active.
type Fig5aResult struct {
	Scheme Scheme
	// GoodputMbps holds the per-queue goodput series (100 ms bins).
	GoodputMbps [3][]float64
	// SteadyMbps is each queue's average goodput over the final stage.
	SteadyMbps [3]float64
}

// RunFig5a executes the staged-start experiment under one scheme.
func RunFig5a(cfg Fig5Config) Fig5aResult {
	eng, net, st, meter := fig5Setup(cfg)

	const recv = 3
	// Stage 0: 500 Mbps stream into the strict queue.
	st.StartCBR(0, recv, 0, 500*fabric.Mbps)
	// Stage 1: one DCTCP flow into WFQ queue 1.
	eng.At(cfg.Stage, func() {
		st.Start(&transport.Flow{ID: st.NewFlowID(), Src: 1, Dst: recv, Size: 1 << 40, Class: 1})
	})
	// Stage 2: four DCTCP flows into WFQ queue 2.
	eng.At(2*cfg.Stage, func() {
		for i := 0; i < 4; i++ {
			st.Start(&transport.Flow{ID: st.NewFlowID(), Src: 2, Dst: recv, Size: 1 << 40, Class: 2})
		}
	})
	eng.RunUntil(cfg.Duration)
	cfg.Obs.ReportCell(eng, st.Pool(), net.Switch)

	res := Fig5aResult{Scheme: cfg.Scheme}
	for q := 0; q < 3; q++ {
		res.GoodputMbps[q] = meter.SeriesMbps(q)
		res.SteadyMbps[q] = meter.AvgMbpsBetween(q, 2*cfg.Stage+cfg.Stage/2, cfg.Duration)
	}
	return res
}

// Fig5bResult is one scheme's RTT distribution through queue 2 (the
// paper's "queue 3") while all services are active.
type Fig5bResult struct {
	Scheme  Scheme
	MeanRTT sim.Time
	P99RTT  sim.Time
	Samples []sim.Time
}

// RunFig5b measures ping RTTs through the most loaded WFQ queue under one
// scheme. For SchemeOracle the per-queue thresholds encode the known
// steady-state capacities (500/250/250 Mbps shares of the 32 KB standard
// threshold).
func RunFig5b(cfg Fig5Config) Fig5bResult {
	eng, net, st, _ := fig5Setup(cfg)

	const recv = 3
	st.StartCBR(0, recv, 0, 500*fabric.Mbps)
	st.Start(&transport.Flow{ID: st.NewFlowID(), Src: 1, Dst: recv, Size: 1 << 40, Class: 1})
	for i := 0; i < 4; i++ {
		st.Start(&transport.Flow{ID: st.NewFlowID(), Src: 2, Dst: recv, Size: 1 << 40, Class: 2})
	}
	// Probe through queue 2 once the system is warm.
	var pg *transport.Pinger
	eng.At(cfg.Duration/8, func() {
		pg = st.StartPinger(2, recv, 2, 10*sim.Millisecond)
	})
	eng.RunUntil(cfg.Duration)
	cfg.Obs.ReportCell(eng, st.Pool(), net.Switch)

	return Fig5bResult{
		Scheme:  cfg.Scheme,
		MeanRTT: pg.Mean(),
		P99RTT:  pg.Percentile(0.99),
		Samples: pg.Samples,
	}
}

// fig5Setup builds the 4-host star with SP/WFQ(1+2) ports under the
// configured scheme and a per-class goodput meter.
func fig5Setup(cfg Fig5Config) (*sim.Engine, *fabric.Star, *transport.Stack, *metrics.GoodputMeter) {
	eng := sim.NewEngine()
	rng := sim.NewRand(cfg.Seed)
	cfg.Obs.AttachEngine(eng)
	cfg.Obs.AttachRand(eng, rng)

	pp := PortParams{
		Queues:        3,
		HighQueues:    1,
		Buffer:        96_000,
		RTTLambda:     256 * sim.Microsecond,
		KBytes:        32_000,
		CoDelTarget:   sim.Time(51.2 * 1000),
		CoDelInterval: 1024 * sim.Microsecond,
		// Oracle: queue 0 drains at 500 Mbps, queues 1-2 at 250 Mbps
		// each; thresholds scale the 32 KB standard threshold.
		OracleK: []int{16_000, 8_000, 8_000},
	}
	net := fabric.NewStar(eng, fabric.StarConfig{
		Hosts:      4,
		Rate:       fabric.Gbps,
		Prop:       2500 * sim.Nanosecond,
		HostDelay:  120 * sim.Microsecond,
		SwitchPort: pp.Factory(cfg.Scheme, SchedSPWFQ, rng),
	})
	cfg.Obs.AttachStar("fig5."+string(cfg.Scheme), net)
	st := transport.NewStack(eng, transport.Config{
		CC:     transport.DCTCP,
		RTOMin: 10 * sim.Millisecond,
	}, net.Hosts)
	cfg.Obs.AttachTransport(st)

	meter := metrics.NewGoodputMeter(3, 100*sim.Millisecond)
	st.OnDeliver = func(now sim.Time, f *transport.Flow, b int) {
		meter.Add(now, int(f.Class), b)
	}
	return eng, net, st, meter
}

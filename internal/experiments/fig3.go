package experiments

import (
	"fmt"

	"tcn/internal/fabric"
	"tcn/internal/metrics"
	"tcn/internal/sim"
	"tcn/internal/transport"
)

// Fig3Config parameterizes the marking-placement experiment (§4.3,
// Figure 3): 8 synchronized long-lived ECN* flows into one 10 Gbps queue;
// the buffer occupancy trace distinguishes enqueue RED (slow-start peak
// ≈ 3×BDP), dequeue RED (peak ≈ 2×BDP, it reacts on *future* packets'
// congestion), and TCN (same peak as enqueue RED because with a fixed
// drain rate sojourn time and queue length are the same signal).
type Fig3Config struct {
	// Duration is the simulated time.
	Duration sim.Time
	// SamplePeriod is the occupancy polling period.
	SamplePeriod sim.Time
	// Seed feeds all randomness.
	Seed int64
	// Obs, if non-nil, receives per-port stats and packet traces for
	// every trace, labelled fig3.<scheme>.
	Obs *Obs
}

// DefaultFig3 returns the paper's configuration.
func DefaultFig3() Fig3Config {
	return Fig3Config{
		Duration:     20 * sim.Millisecond,
		SamplePeriod: 10 * sim.Microsecond,
		Seed:         1,
	}
}

// Fig3Trace is one scheme's occupancy trace.
type Fig3Trace struct {
	Scheme Scheme
	// Occupancy is the port buffer occupancy in bytes over time.
	Occupancy []metrics.Sample
	// PeakBytes is the slow-start peak.
	PeakBytes int
	// SteadyMaxBytes is the largest occupancy after the slow-start
	// transient (from 5 ms on).
	SteadyMaxBytes int
	// SteadyMeanBytes is the mean occupancy after the transient.
	SteadyMeanBytes int
}

// Fig3Result is the full figure.
type Fig3Result struct {
	// BDP is the bandwidth-delay product in bytes (125 KB here).
	BDP    int
	Traces []Fig3Trace
}

// RunFig3 executes the three traces.
func RunFig3(cfg Fig3Config) Fig3Result {
	res := Fig3Result{BDP: (10 * fabric.Gbps).BDP(100 * sim.Microsecond)}
	for _, s := range []Scheme{SchemeRED, SchemeREDDeq, SchemeTCN} {
		res.Traces = append(res.Traces, runFig3Once(cfg, s))
	}
	return res
}

func runFig3Once(cfg Fig3Config, scheme Scheme) Fig3Trace {
	eng := sim.NewEngine()
	rng := sim.NewRand(cfg.Seed)
	cfg.Obs.AttachEngine(eng)
	cfg.Obs.AttachRand(eng, rng)

	pp := PortParams{
		Queues:    1,
		Buffer:    1_000_000,
		RTTLambda: 100 * sim.Microsecond,
		KBytes:    125_000,
	}
	net := fabric.NewStar(eng, fabric.StarConfig{
		Hosts:      9,
		Rate:       10 * fabric.Gbps,
		Prop:       sim.Microsecond,
		HostDelay:  48 * sim.Microsecond,
		SwitchPort: pp.Factory(scheme, SchedFIFO, rng),
	})
	cfg.Obs.AttachStar(fmt.Sprintf("fig3.%s", scheme), net)
	// IW=2 (the ns-2 default of the paper's targeted simulation): the
	// figure's 3×BDP peak is the classic slow-start overshoot, which
	// needs several doubling rounds before ECN feedback arrives.
	st := transport.NewStack(eng, transport.Config{
		CC:         transport.ECNStar,
		RTOMin:     5 * sim.Millisecond,
		InitWindow: 2,
	}, net.Hosts)
	cfg.Obs.AttachTransport(st)

	const recv = 8
	for src := 0; src < 8; src++ {
		st.Start(&transport.Flow{ID: st.NewFlowID(), Src: src, Dst: recv, Size: 1 << 40})
	}

	port := net.Switch.Port(recv)
	rec := cfg.Obs.flightRecorder()
	occ := rec.SeriesCap(fmt.Sprintf("fig3.%s.occupancy_bytes", scheme), figSeriesCap)
	rec.Probe(eng, occ.Name(), cfg.SamplePeriod, func(sim.Time) float64 {
		return float64(port.PortBytes())
	})
	eng.RunUntil(cfg.Duration)
	cfg.Obs.ReportCell(eng, st.Pool(), net.Switch)

	tr := Fig3Trace{Scheme: scheme, Occupancy: samplesOf(occ)}
	tr.PeakBytes = int(occ.Max())
	tr.SteadyMaxBytes = int(occ.MaxBetween(5*sim.Millisecond, cfg.Duration))
	tr.SteadyMeanBytes = int(occ.MeanBetween(5*sim.Millisecond, cfg.Duration))
	return tr
}

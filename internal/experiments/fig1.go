package experiments

import (
	"fmt"

	"tcn/internal/fabric"
	"tcn/internal/metrics"
	"tcn/internal/parallel"
	"tcn/internal/sim"
	"tcn/internal/transport"
)

// Fig1Config parameterizes the per-port RED policy-violation experiment
// (§3.2.2, Figure 1): two services share a DWRR port; service 1 always
// has one long flow, service 2 scales its flow count; under per-port RED
// the aggregate goodput drifts toward service 2, violating the 50/50
// scheduling policy.
type Fig1Config struct {
	// Scheme is the marking scheme (the figure uses SchemePortRED; run
	// SchemeTCN for the contrast row).
	Scheme Scheme
	// FlowCounts lists the service-2 flow counts to sweep (paper: 2-16).
	FlowCounts []int
	// Duration is the measured run length per point.
	Duration sim.Time
	// Seed feeds all randomness.
	Seed int64
	// Obs, if non-nil, receives per-port stats and packet traces for
	// every sweep point, labelled fig1.<scheme>.n<flows>. Attaching any
	// sink forces serial execution.
	Obs *Obs
	// Workers bounds the number of points evaluated concurrently; <= 1
	// runs serially. Results are identical at any width.
	Workers int
}

// DefaultFig1 returns the paper's configuration.
func DefaultFig1() Fig1Config {
	return Fig1Config{
		Scheme:     SchemePortRED,
		FlowCounts: []int{1, 2, 4, 8, 16},
		Duration:   2 * sim.Second,
		Seed:       1,
	}
}

// Fig1Point is one x-position of Figure 1.
type Fig1Point struct {
	Service2Flows int
	Service1Mbps  float64
	Service2Mbps  float64
	Service2Share float64 // fraction of total goodput
	TotalMbps     float64
}

// Fig1Result is the full sweep.
type Fig1Result struct {
	Scheme Scheme
	Points []Fig1Point
}

// RunFig1 executes the sweep. The topology is the testbed's: 3 servers on
// a 1 GbE switch, DCTCP, DWRR with 2 equal-quantum queues, and a per-port
// marking threshold of 30 KB as the DCTCP paper recommends.
func RunFig1(cfg Fig1Config) Fig1Result {
	return Fig1Result{
		Scheme: cfg.Scheme,
		Points: parallel.RunTracked(sweepWorkers(cfg.Workers, cfg.Obs), len(cfg.FlowCounts), cfg.Obs.Tracker(),
			func(i int) Fig1Point { return runFig1Point(cfg, cfg.FlowCounts[i]) }),
	}
}

func runFig1Point(cfg Fig1Config, n int) Fig1Point {
	eng := sim.NewEngine()
	cfg.Obs.AttachEngine(eng)
	rng := sim.NewRand(cfg.Seed)
	cfg.Obs.AttachRand(eng, rng)

	pp := PortParams{
		Queues:    2,
		Buffer:    96_000,
		Quantum:   1500,
		RTTLambda: 256 * sim.Microsecond,
		KBytes:    30_000,
		TIdle:     fabric.Gbps.Serialize(1500),
	}
	net := fabric.NewStar(eng, fabric.StarConfig{
		Hosts:      3,
		Rate:       fabric.Gbps,
		Prop:       2500 * sim.Nanosecond,
		HostDelay:  120 * sim.Microsecond,
		SwitchPort: pp.Factory(cfg.Scheme, SchedDWRR, rng),
	})
	cfg.Obs.AttachStar(fmt.Sprintf("fig1.%s.n%d", cfg.Scheme, n), net)
	st := transport.NewStack(eng, transport.Config{
		CC:     transport.DCTCP,
		RTOMin: 10 * sim.Millisecond,
	}, net.Hosts)
	cfg.Obs.AttachTransport(st)

	meter := metrics.NewGoodputMeter(2, 100*sim.Millisecond)
	st.OnDeliver = func(now sim.Time, f *transport.Flow, b int) {
		meter.Add(now, int(f.Class), b)
	}

	const recv = 2
	// Service 1: one long flow from host 0 in class 0.
	st.Start(&transport.Flow{ID: st.NewFlowID(), Src: 0, Dst: recv, Size: 1 << 40, Class: 0})
	// Service 2: n long flows from host 1 in class 1.
	for i := 0; i < n; i++ {
		st.Start(&transport.Flow{ID: st.NewFlowID(), Src: 1, Dst: recv, Size: 1 << 40, Class: 1})
	}

	eng.RunUntil(cfg.Duration)

	// Skip the first quarter as warm-up.
	from, to := cfg.Duration/4, cfg.Duration
	s1 := meter.AvgMbpsBetween(0, from, to)
	s2 := meter.AvgMbpsBetween(1, from, to)
	total := s1 + s2
	share := 0.0
	if total > 0 {
		share = s2 / total
	}
	cfg.Obs.ReportCell(eng, st.Pool(), net.Switch)
	return Fig1Point{
		Service2Flows: n,
		Service1Mbps:  s1,
		Service2Mbps:  s2,
		Service2Share: share,
		TotalMbps:     total,
	}
}

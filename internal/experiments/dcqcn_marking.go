package experiments

import (
	"math"

	"tcn/internal/core"
	"tcn/internal/dcqcn"
	"tcn/internal/fabric"
	"tcn/internal/metrics"
	"tcn/internal/obs/flight"
	"tcn/internal/parallel"
	"tcn/internal/pkt"
	"tcn/internal/sim"
)

// DCQCNMarkingConfig drives the §4.3 extension experiment the paper
// sketches and defers to future work: DCQCN senders under TCN marking,
// comparing the single-threshold cut-off against the RED-like
// probabilistic variant (Tmin/Tmax/Pmax). Cut-off marking notifies every
// sender in the same sojourn excursion, synchronizing their rate cuts;
// probabilistic marking spreads notifications, which is what DCQCN's
// fairness relies on.
type DCQCNMarkingConfig struct {
	// Senders all share one 10 Gbps bottleneck.
	Senders int
	// Warmup is excluded from measurement (synchronized-start
	// transient); Measure is the observation window after it.
	Warmup, Measure sim.Time
	// Probabilistic selects ProbTCN (Tmin/Tmax/Pmax below) instead of
	// plain TCN at Tmax.
	Probabilistic bool
	// Tmin, Tmax, Pmax parameterize the marker.
	Tmin, Tmax sim.Time
	Pmax       float64
	// Seed feeds the marker's coin flips.
	Seed int64
	// Obs carries the self-telemetry campaign, if any; the DCQCN runs
	// attach no per-port sinks, so only the Perf field is consulted.
	Obs *Obs
}

// DefaultDCQCNMarking returns the experiment defaults.
func DefaultDCQCNMarking() DCQCNMarkingConfig {
	return DCQCNMarkingConfig{
		Senders: 4,
		Warmup:  150 * sim.Millisecond,
		Measure: 200 * sim.Millisecond,
		Tmin:    30 * sim.Microsecond,
		Tmax:    300 * sim.Microsecond,
		Pmax:    0.01,
		Seed:    1,
	}
}

// DCQCNMarkingResult summarizes one run.
type DCQCNMarkingResult struct {
	// Jain is the fairness index over per-sender steady goodput.
	Jain float64
	// AggGbps is the steady aggregate goodput.
	AggGbps float64
	// QueueMean and QueueStd describe the steady occupancy (bytes);
	// synchronized cuts show up as a larger relative oscillation.
	QueueMean, QueueStd float64
	// CNPs is the total congestion notifications delivered.
	CNPs int
}

// RunDCQCNMarking executes one run.
func RunDCQCNMarking(cfg DCQCNMarkingConfig) DCQCNMarkingResult {
	eng := sim.NewEngine()
	cfg.Obs.AttachEngine(eng)
	rng := sim.NewRand(cfg.Seed)
	cfg.Obs.AttachRand(eng, rng)

	recv := cfg.Senders
	net := fabric.NewStar(eng, fabric.StarConfig{
		Hosts:     cfg.Senders + 1,
		Rate:      10 * fabric.Gbps,
		Prop:      sim.Microsecond,
		HostDelay: 5 * sim.Microsecond,
		SwitchPort: func() fabric.PortConfig {
			var m core.Marker
			if cfg.Probabilistic {
				m = core.NewProbTCN(cfg.Tmin, cfg.Tmax, cfg.Pmax, rng)
			} else {
				m = core.NewTCN(cfg.Tmax)
			}
			// Unbounded buffer: the PFC-lossless stand-in.
			return fabric.PortConfig{Queues: 1, Marker: m}
		},
	})
	st := dcqcn.NewStack(eng, dcqcn.Config{}, net.Hosts)

	delivered := map[pkt.FlowID]float64{}
	st.OnDeliver = func(now sim.Time, f pkt.FlowID, n int) {
		if now >= cfg.Warmup {
			delivered[f] += float64(n)
		}
	}
	var snds []*dcqcn.Sender
	for src := 0; src < cfg.Senders; src++ {
		snds = append(snds, st.Start(src, recv, 0))
	}

	port := net.Switch.Port(recv)
	rec := flight.New(flight.Config{SeriesCap: figSeriesCap})
	occ := rec.SeriesCap("dcqcn.occupancy_bytes", figSeriesCap)
	rec.Probe(eng, occ.Name(), 50*sim.Microsecond, func(sim.Time) float64 {
		return float64(port.PortBytes())
	})
	eng.RunUntil(cfg.Warmup + cfg.Measure)

	var res DCQCNMarkingResult
	sum, _ := metrics.SumAndSumSq(delivered)
	res.Jain = metrics.JainFairness(delivered, cfg.Senders)
	res.AggGbps = sum * 8 / cfg.Measure.Seconds() / 1e9
	res.QueueMean = occ.MeanBetween(cfg.Warmup, cfg.Warmup+cfg.Measure)
	var varSum float64
	n := 0
	for _, s := range occ.Points() {
		if s.At >= cfg.Warmup {
			d := s.V - res.QueueMean
			varSum += d * d
			n++
		}
	}
	if n > 0 {
		res.QueueStd = math.Sqrt(varSum / float64(n))
	}
	for _, s := range snds {
		res.CNPs += s.CNPs
	}
	cfg.Obs.ReportCell(eng, st.Pool(), net.Switch)
	return res
}

// DCQCNSweepConfig shapes the §4.3 comparison sweep: both marker variants
// evaluated across a range of sender counts.
type DCQCNSweepConfig struct {
	// Senders lists the x-axis (sender counts sharing the bottleneck).
	Senders []int
	// Base provides every other parameter; Senders and Probabilistic are
	// overridden per cell.
	Base DCQCNMarkingConfig
	// Workers bounds the number of cells evaluated concurrently; <= 1
	// runs serially. Results are identical at any width.
	Workers int
}

// DefaultDCQCNSweep returns the default comparison shape.
func DefaultDCQCNSweep() DCQCNSweepConfig {
	return DCQCNSweepConfig{
		Senders: []int{2, 4, 8},
		Base:    DefaultDCQCNMarking(),
	}
}

// DCQCNSweep holds the two result rows, indexed like Senders.
type DCQCNSweep struct {
	Senders []int
	// CutOff and Probabilistic are the plain-TCN and ProbTCN rows.
	CutOff        []DCQCNMarkingResult
	Probabilistic []DCQCNMarkingResult
}

// RunDCQCNSweep executes the comparison grid: cut-off and probabilistic
// marking at every sender count, each cell an independent engine.
func RunDCQCNSweep(cfg DCQCNSweepConfig) DCQCNSweep {
	cols := len(cfg.Senders)
	flat := parallel.RunTracked(sweepWorkers(cfg.Workers, cfg.Base.Obs), 2*cols, cfg.Base.Obs.Tracker(),
		func(i int) DCQCNMarkingResult {
			c := cfg.Base
			c.Probabilistic = i/cols == 1
			c.Senders = cfg.Senders[i%cols]
			return RunDCQCNMarking(c)
		})
	return DCQCNSweep{
		Senders:       cfg.Senders,
		CutOff:        flat[:cols],
		Probabilistic: flat[cols:],
	}
}

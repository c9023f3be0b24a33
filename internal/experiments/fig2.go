package experiments

import (
	"tcn/internal/fabric"
	"tcn/internal/metrics"
	"tcn/internal/sim"
	"tcn/internal/transport"
)

// Fig2Config parameterizes the departure-rate estimation experiment
// (§3.3, Figure 2): 10 servers send to one receiver over a 10 Gbps DWRR
// port with two 18 KB-quantum queues; 8 ECN* flows occupy queue 0 from the
// start and 2 more flows join queue 1 at 10 ms, dropping queue 0's true
// capacity to 5 Gbps. The figure compares how Algorithm 1 (dq_thresh 40 KB
// and 10 KB) and MQ-ECN track that change.
type Fig2Config struct {
	// StepAt is when the second service starts (paper: 10 ms).
	StepAt sim.Time
	// Duration is the total simulated time (paper plots ~2 ms after the
	// step; we run a little longer to measure convergence).
	Duration sim.Time
	// DqThreshs lists the Algorithm-1 cycle sizes to sweep.
	DqThreshs []int
	// Seed feeds all randomness.
	Seed int64
	// Obs, if non-nil, receives per-port stats, packet traces, and flight
	// telemetry for every trace, labelled fig2.<scheme>.
	Obs *Obs
}

// DefaultFig2 returns the paper's configuration.
func DefaultFig2() Fig2Config {
	return Fig2Config{
		StepAt:    10 * sim.Millisecond,
		Duration:  16 * sim.Millisecond,
		DqThreshs: []int{40_000, 10_000},
		Seed:      1,
	}
}

// Fig2Trace is the estimator trace of one scheme for queue 0.
type Fig2Trace struct {
	Scheme   string           // "dynred-40KB", "dynred-10KB", "mqecn"
	Raw      []metrics.Sample // raw samples (Gbps) where available
	Smoothed []metrics.Sample // smoothed estimate (Gbps)

	// SamplesInWindow counts estimator samples in the 2 ms after the
	// step (the paper: 29 for 40 KB vs many for MQ-ECN).
	SamplesInWindow int
	// ConvergeTime is when the smoothed estimate first stays within
	// 10 % of 5 Gbps after the step (0 = never during the run).
	ConvergeTime sim.Time
	// MinGbps and MaxGbps bound the raw samples after the step,
	// exposing the oscillation of small dq_thresh.
	MinGbps, MaxGbps float64
	// FinalGbps is the last smoothed estimate of the run.
	FinalGbps float64
}

// Fig2Result is the full figure.
type Fig2Result struct {
	Traces []Fig2Trace
}

// RunFig2 executes the three estimator traces.
func RunFig2(cfg Fig2Config) Fig2Result {
	var res Fig2Result
	for _, dq := range cfg.DqThreshs {
		name := "dynred-" + byteLabel(dq)
		res.Traces = append(res.Traces, runFig2Once(cfg, SchemeDynRED, dq, name))
	}
	res.Traces = append(res.Traces, runFig2Once(cfg, SchemeMQECN, 0, "mqecn"))
	return res
}

func byteLabel(b int) string {
	if b%1000 == 0 {
		return itoa(b/1000) + "KB"
	}
	return itoa(b) + "B"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func runFig2Once(cfg Fig2Config, scheme Scheme, dqThresh int, name string) Fig2Trace {
	eng := sim.NewEngine()
	rng := sim.NewRand(cfg.Seed)
	cfg.Obs.AttachEngine(eng)
	cfg.Obs.AttachRand(eng, rng)
	tr := Fig2Trace{Scheme: name}

	const rttLambda = 100 * sim.Microsecond // ECN*: λ=1, RTT=100us

	// The estimator traces are event-driven series in the flight
	// recorder: each estimator callback records one point, and the trace
	// slices below are read back out of the recorder after the run.
	rec := cfg.Obs.flightRecorder()
	rawSeries := rec.SeriesCap("fig2."+name+".est_raw_gbps", figSeriesCap)
	smoothedSeries := rec.SeriesCap("fig2."+name+".est_smoothed_gbps", figSeriesCap)

	pp := PortParams{
		Queues:    2,
		Buffer:    1_000_000,
		Quantum:   18_000,
		RTTLambda: rttLambda,
		KBytes:    125_000,
		DqThresh:  dqThresh,
		TIdle:     (10 * fabric.Gbps).Serialize(1500),
	}
	// Trace hooks: only queue 0 matters for the figure.
	pp.OnDynREDSample = func(q int) func(sim.Time, float64, float64) {
		if q != 0 {
			return nil
		}
		return func(now sim.Time, raw, smoothed float64) {
			rawSeries.Record(now, raw*8/1e9)
			smoothedSeries.Record(now, smoothed*8/1e9)
		}
	}
	pp.OnMQECNEstimate = func(now sim.Time, q int, rate float64) {
		if q != 0 {
			return
		}
		smoothedSeries.Record(now, rate*8/1e9)
	}

	net := fabric.NewStar(eng, fabric.StarConfig{
		Hosts:      11,
		Rate:       10 * fabric.Gbps,
		Prop:       sim.Microsecond,
		HostDelay:  48 * sim.Microsecond,
		SwitchPort: pp.Factory(scheme, SchedDWRR, rng),
	})
	cfg.Obs.AttachStar("fig2."+name, net)
	st := transport.NewStack(eng, transport.Config{
		CC:         transport.ECNStar,
		RTOMin:     5 * sim.Millisecond,
		InitWindow: 16,
	}, net.Hosts)
	cfg.Obs.AttachTransport(st)

	const recv = 10
	for src := 0; src < 8; src++ {
		st.Start(&transport.Flow{ID: st.NewFlowID(), Src: src, Dst: recv, Size: 1 << 40, Class: 0})
	}
	for src := 8; src < 10; src++ {
		f := &transport.Flow{ID: st.NewFlowID(), Src: src, Dst: recv, Size: 1 << 40, Class: 1}
		st.StartAt(cfg.StepAt, f)
	}

	eng.RunUntil(cfg.Duration)
	cfg.Obs.ReportCell(eng, st.Pool(), net.Switch)

	tr.Raw = samplesOf(rawSeries)
	tr.Smoothed = samplesOf(smoothedSeries)

	// Post-process the trace.
	const target = 5.0 // Gbps
	for _, s := range tr.Raw {
		if s.At < cfg.StepAt {
			continue
		}
		if tr.MinGbps == 0 || s.Value < tr.MinGbps { //tcnlint:floatexact zero means "no sample yet"
			tr.MinGbps = s.Value
		}
		if s.Value > tr.MaxGbps {
			tr.MaxGbps = s.Value
		}
	}
	window := cfg.StepAt + 2*sim.Millisecond
	for _, s := range tr.Smoothed {
		if s.At >= cfg.StepAt && s.At <= window {
			tr.SamplesInWindow++
		}
	}
	// Convergence: first smoothed sample after the step from which all
	// later samples stay within 10% of target.
	for i, s := range tr.Smoothed {
		if s.At < cfg.StepAt {
			continue
		}
		ok := true
		for _, t := range tr.Smoothed[i:] {
			if t.Value < target*0.9 || t.Value > target*1.1 {
				ok = false
				break
			}
		}
		if ok {
			tr.ConvergeTime = s.At - cfg.StepAt
			break
		}
	}
	if n := len(tr.Smoothed); n > 0 {
		tr.FinalGbps = tr.Smoothed[n-1].Value
	}
	return tr
}

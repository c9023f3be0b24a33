// Package tcn's root benchmark suite regenerates every table and figure of
// the paper's evaluation at benchmark scale and reports the headline
// quantities as custom metrics, so `go test -bench=. -benchmem` doubles as
// the reproduction harness. Figure-level pass/fail shape checks live in
// internal/experiments tests; the benches here report magnitudes.
package tcn

import (
	"fmt"
	"testing"

	"tcn/internal/aqm"
	"tcn/internal/core"
	"tcn/internal/digest"
	"tcn/internal/experiments"
	"tcn/internal/fabric"
	"tcn/internal/metrics"
	"tcn/internal/obs"
	"tcn/internal/obs/flight"
	"tcn/internal/obs/perf"
	"tcn/internal/obs/prof"
	"tcn/internal/pkt"
	"tcn/internal/qdisc"
	"tcn/internal/sim"
	"tcn/internal/trace"
	"tcn/internal/transport"
)

// benchSweep is the reduced sweep used by the figure benches.
func benchSweep(schemes ...experiments.Scheme) experiments.SweepConfig {
	return experiments.SweepConfig{
		Loads:   []float64{0.9},
		Flows:   800,
		Seed:    1,
		Schemes: schemes,
	}
}

func benchLeaf() experiments.LeafSpineSweepConfig {
	return experiments.LeafSpineSweepConfig{
		Loads:  []float64{0.9},
		Flows:  500,
		Seed:   1,
		Leaves: 4, Spines: 4, HostsPerLeaf: 4,
		Schemes: []experiments.Scheme{experiments.SchemeTCN, experiments.SchemeRED},
	}
}

// us converts a sim.Time to float64 microseconds for ReportMetric.
func us(t sim.Time) float64 { return t.Microseconds() }

func BenchmarkFig1PortREDViolation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFig1()
		cfg.FlowCounts = []int{1, 16}
		cfg.Duration = sim.Second
		res := experiments.RunFig1(cfg)
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(100*last.Service2Share, "svc2-share-%")
		b.ReportMetric(last.TotalMbps, "total-Mbps")
	}
}

func BenchmarkFig2RateEstimation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig2(experiments.DefaultFig2())
		for _, tr := range res.Traces {
			if tr.Scheme == "mqecn" {
				b.ReportMetric(us(tr.ConvergeTime), "mqecn-converge-us")
			}
			if tr.Scheme == "dynred-40KB" {
				b.ReportMetric(float64(tr.SamplesInWindow), "dq40KB-samples-2ms")
			}
			if tr.Scheme == "dynred-10KB" {
				b.ReportMetric(tr.MaxGbps-tr.MinGbps, "dq10KB-swing-Gbps")
			}
		}
	}
}

func BenchmarkFig3Occupancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig3(experiments.DefaultFig3())
		for _, tr := range res.Traces {
			switch tr.Scheme {
			case experiments.SchemeRED:
				b.ReportMetric(float64(tr.PeakBytes)/float64(res.BDP), "enqRED-peak-BDP")
			case experiments.SchemeREDDeq:
				b.ReportMetric(float64(tr.PeakBytes)/float64(res.BDP), "deqRED-peak-BDP")
			case experiments.SchemeTCN:
				b.ReportMetric(float64(tr.PeakBytes)/float64(res.BDP), "TCN-peak-BDP")
			}
		}
	}
}

func BenchmarkFig5aSPWFQPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFig5()
		cfg.Stage = 500 * sim.Millisecond
		cfg.Duration = 2 * sim.Second
		res := experiments.RunFig5a(cfg)
		b.ReportMetric(res.SteadyMbps[0], "q1-Mbps")
		b.ReportMetric(res.SteadyMbps[1], "q2-Mbps")
		b.ReportMetric(res.SteadyMbps[2], "q3-Mbps")
	}
}

func BenchmarkFig5bLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range []experiments.Scheme{experiments.SchemeTCN, experiments.SchemeRED} {
			cfg := experiments.DefaultFig5()
			cfg.Scheme = s
			cfg.Duration = 2 * sim.Second
			res := experiments.RunFig5b(cfg)
			b.ReportMetric(us(res.MeanRTT), string(s)+"-mean-rtt-us")
		}
	}
}

// reportSweep publishes TCN and RED small-flow stats for a testbed sweep.
func reportSweep(b *testing.B, sw experiments.FCTSweep) {
	b.Helper()
	if c := sw.Cell(experiments.SchemeTCN, 0.9); c != nil {
		b.ReportMetric(us(c.Stats.AvgSmall), "TCN-avg-small-us")
		b.ReportMetric(us(c.Stats.P99Small), "TCN-p99-small-us")
	}
	if c := sw.Cell(experiments.SchemeRED, 0.9); c != nil {
		b.ReportMetric(us(c.Stats.AvgSmall), "RED-avg-small-us")
		b.ReportMetric(us(c.Stats.P99Small), "RED-p99-small-us")
	}
}

func BenchmarkFig6IsolationDWRR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSweep(b, experiments.RunFig6(benchSweep(experiments.SchemeTCN, experiments.SchemeRED)))
	}
}

func BenchmarkFig7IsolationWFQ(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSweep(b, experiments.RunFig7(benchSweep(experiments.SchemeTCN, experiments.SchemeRED)))
	}
}

func BenchmarkFig8PriorSPDWRR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSweep(b, experiments.RunFig8(benchSweep(experiments.SchemeTCN, experiments.SchemeRED)))
	}
}

func BenchmarkFig9PriorSPWFQ(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSweep(b, experiments.RunFig9(benchSweep(experiments.SchemeTCN, experiments.SchemeRED)))
	}
}

// reportLeaf publishes the §6.2 quantities (incl. timeout counts).
func reportLeaf(b *testing.B, sw experiments.LeafSpineSweep) {
	b.Helper()
	if c := sw.Cell(experiments.SchemeTCN, 0.9); c != nil {
		b.ReportMetric(us(c.Stats.AvgSmall), "TCN-avg-small-us")
		b.ReportMetric(float64(c.Stats.TimeoutsSmall), "TCN-timeouts-small")
	}
	if c := sw.Cell(experiments.SchemeRED, 0.9); c != nil {
		b.ReportMetric(us(c.Stats.AvgSmall), "RED-avg-small-us")
		b.ReportMetric(float64(c.Stats.TimeoutsSmall), "RED-timeouts-small")
	}
}

func BenchmarkFig10LeafSpineDWRR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportLeaf(b, experiments.RunFig10(benchLeaf()))
	}
}

func BenchmarkFig11LeafSpineWFQ(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportLeaf(b, experiments.RunFig11(benchLeaf()))
	}
}

func BenchmarkFig12ECNStar(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportLeaf(b, experiments.RunFig12(benchLeaf()))
	}
}

func BenchmarkFig13ManyQueues(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportLeaf(b, experiments.RunFig13(benchLeaf()))
	}
}

// --- ablation benches for the design choices DESIGN.md calls out ---

// BenchmarkAblationSignal contrasts the congestion signal itself: the same
// prioritized workload under sojourn-time (TCN) vs queue-length (RED)
// marking.
func BenchmarkAblationSignal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tcn := experiments.RunTestbedFCT(experiments.TestbedFCTConfig{
			Scheme: experiments.SchemeTCN, Sched: experiments.SchedSPDWRR,
			PIAS: true, Load: 0.9, Flows: 800, Seed: 1,
		})
		red := experiments.RunTestbedFCT(experiments.TestbedFCTConfig{
			Scheme: experiments.SchemeRED, Sched: experiments.SchedSPDWRR,
			PIAS: true, Load: 0.9, Flows: 800, Seed: 1,
		})
		b.ReportMetric(float64(red.Stats.AvgSmall)/float64(tcn.Stats.AvgSmall), "queuelen/sojourn-avg-small")
		b.ReportMetric(float64(red.Drops)/float64(max(tcn.Drops, 1)), "queuelen/sojourn-drops")
	}
}

// BenchmarkAblationBurst contrasts instantaneous (TCN) vs windowed (CoDel)
// time signals on the same bursty workload.
func BenchmarkAblationBurst(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tcn := experiments.RunTestbedFCT(experiments.TestbedFCTConfig{
			Scheme: experiments.SchemeTCN, Sched: experiments.SchedSPDWRR,
			PIAS: true, Load: 0.9, Flows: 800, Seed: 1,
		})
		codel := experiments.RunTestbedFCT(experiments.TestbedFCTConfig{
			Scheme: experiments.SchemeCoDel, Sched: experiments.SchedSPDWRR,
			PIAS: true, Load: 0.9, Flows: 800, Seed: 1,
		})
		b.ReportMetric(float64(codel.Stats.P99Small)/float64(tcn.Stats.P99Small), "codel/tcn-p99-small")
	}
}

// BenchmarkAblationDqThresh sweeps Algorithm 1's measurement window (§3.3).
func BenchmarkAblationDqThresh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFig2()
		cfg.DqThreshs = []int{80_000, 40_000, 10_000, 5_000}
		res := experiments.RunFig2(cfg)
		for _, tr := range res.Traces {
			if tr.Scheme == "mqecn" {
				continue
			}
			b.ReportMetric(tr.MaxGbps-tr.MinGbps, tr.Scheme+"-swing-Gbps")
		}
	}
}

// BenchmarkAblationHWTCN runs TCN computed on the 16-bit hardware clock
// (§4.2) and reports its deviation from ideal TCN — the executable version
// of the paper's feasibility argument. The argument holds where the paper
// makes it: on fast links whose worst-case sojourn fits the counter span
// (300 KB at 10 Gbps = 240 us < 8 ns × 2^16 ≈ 524 us). On a 1 Gbps port
// with a 96 KB shared buffer, sojourns can exceed the span and alias —
// see EXPERIMENTS.md.
func BenchmarkAblationHWTCN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultLeafSpine()
		cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = 2, 2, 2
		cfg.Flows = 400
		cfg.Seed = 1
		ideal := experiments.RunLeafSpine(cfg)
		cfg.Scheme = experiments.SchemeTCNHW
		hw := experiments.RunLeafSpine(cfg)
		b.ReportMetric(float64(hw.Stats.AvgSmall)/float64(ideal.Stats.AvgSmall), "hw/ideal-avg-small")
		b.ReportMetric(float64(hw.Stats.AvgLarge)/float64(ideal.Stats.AvgLarge), "hw/ideal-avg-large")
	}
}

// BenchmarkEngineThroughput measures raw simulator speed: events per
// second on a saturated leaf-spine run, the cost driver of every
// experiment above.
func BenchmarkEngineThroughput(b *testing.B) {
	camp := perf.NewCampaign(nil)
	for i := 0; i < b.N; i++ {
		c := experiments.DefaultLeafSpine()
		c.Leaves, c.Spines, c.HostsPerLeaf = 2, 2, 2
		c.Flows = 300
		c.CC = transport.DCTCP
		c.Obs = &experiments.Obs{Perf: camp}
		experiments.RunLeafSpine(c)
	}
	if el := b.Elapsed().Seconds(); el > 0 {
		b.ReportMetric(float64(camp.SnapshotNow(false).EventsExecuted)/el, "events/sec")
	}
}

// BenchmarkSweepParallel measures the fig6 bench sweep (8 independent
// cells) at increasing worker counts. The results are byte-identical at
// every width (test-enforced in internal/experiments); this bench shows the
// wall-clock side of the trade. On a single-core machine the widths tie —
// the speedup needs real CPUs, not goroutines.
func BenchmarkSweepParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchSweep(experiments.SchemeTCN, experiments.SchemeRED)
				cfg.Loads = []float64{0.3, 0.5, 0.7, 0.9}
				cfg.Flows = 400
				cfg.Workers = workers
				experiments.RunFig6(cfg)
			}
		})
	}
}

// BenchmarkPacketPathSteadyState drives one long DCTCP flow through a star
// switch past slow start, then measures a millisecond of simulated traffic
// per iteration. With the event freelist and packet pool warm this is
// allocation-free (asserted in internal/sim and internal/transport tests);
// allocs/op here should read 0 on normal builds.
func BenchmarkPacketPathSteadyState(b *testing.B) {
	eng := sim.NewEngine()
	star := fabric.NewStar(eng, fabric.StarConfig{
		Hosts: 2,
		Rate:  10 * fabric.Gbps,
		Prop:  10 * sim.Microsecond,
		SwitchPort: func() fabric.PortConfig {
			return fabric.PortConfig{Queues: 1}
		},
	})
	st := transport.NewStack(eng, transport.Config{CC: transport.DCTCP}, star.Hosts)
	st.Start(&transport.Flow{ID: st.NewFlowID(), Src: 0, Dst: 1, Size: 1 << 40})
	eng.RunUntil(50 * sim.Millisecond) // warm pools past slow start
	b.ReportAllocs()
	b.ResetTimer()
	start := eng.Executed
	for i := 0; i < b.N; i++ {
		eng.RunUntil(eng.Now() + sim.Millisecond)
	}
	b.ReportMetric(float64(eng.Executed)/float64(b.N), "events/op")
	if el := b.Elapsed().Seconds(); el > 0 {
		b.ReportMetric(float64(eng.Executed-start)/el, "events/sec")
	}
	pool := st.Pool()
	if tot := pool.Allocs + pool.Reuses; tot > 0 {
		b.ReportMetric(100*float64(pool.Reuses)/float64(tot), "pool-hit-%")
	}
}

// BenchmarkPacketPathFingerprinted is BenchmarkPacketPathSteadyState with
// run fingerprinting attached: per-component digest chains snapshotted
// every simulated millisecond plus the armed-but-dormant per-event fine
// hook. The delta against the bare bench is the whole observability cost
// of `-fingerprint`; allocs/op must still read 0.
func BenchmarkPacketPathFingerprinted(b *testing.B) {
	eng := sim.NewEngine()
	star := fabric.NewStar(eng, fabric.StarConfig{
		Hosts: 2,
		Rate:  10 * fabric.Gbps,
		Prop:  10 * sim.Microsecond,
		SwitchPort: func() fabric.PortConfig {
			return fabric.PortConfig{Queues: 1}
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
	var tick func()
	tick = func() {
		sc.Snapshot(int64(eng.Now()))
		eng.After(sim.Millisecond, tick)
	}
	eng.After(0, tick)
	eng.SetPostEvent(func(now sim.Time, executed uint64) { sc.FineSnapshot(executed, int64(now)) })
	st := transport.NewStack(eng, transport.Config{CC: transport.DCTCP}, star.Hosts)
	st.Start(&transport.Flow{ID: st.NewFlowID(), Src: 0, Dst: 1, Size: 1 << 40})
	eng.RunUntil(50 * sim.Millisecond) // warm pools past slow start
	b.ReportAllocs()
	b.ResetTimer()
	start := eng.Executed
	for i := 0; i < b.N; i++ {
		eng.RunUntil(eng.Now() + sim.Millisecond)
	}
	b.ReportMetric(float64(eng.Executed)/float64(b.N), "events/op")
	if el := b.Elapsed().Seconds(); el > 0 {
		b.ReportMetric(float64(eng.Executed-start)/el, "events/sec")
	}
	b.ReportMetric(float64(rec.Len()), "digest-records")
}

// BenchmarkPacketPathProfiled is BenchmarkPacketPathSteadyState with the
// cost profiler's deterministic plane attached: scope brackets on both
// switch ports and the transport stack plus the per-event attribution
// hook. The delta against the bare bench is the whole cost of
// `tcnsim -profile`; the AllocsPerRun pin below fails fast if the
// attribution path ever allocates.
func BenchmarkPacketPathProfiled(b *testing.B) {
	eng := sim.NewEngine()
	star := fabric.NewStar(eng, fabric.StarConfig{
		Hosts: 2,
		Rate:  10 * fabric.Gbps,
		Prop:  10 * sim.Microsecond,
		SwitchPort: func() fabric.PortConfig {
			return fabric.PortConfig{Queues: 1}
		},
	})
	p := prof.New(prof.Config{})
	p.AttachEngine(eng)
	for i := 0; i < star.Switch.NumPorts(); i++ {
		label := "sw.p0"
		if i == 1 {
			label = "sw.p1"
		}
		star.Switch.Port(i).SetProfiler(p, label)
	}
	st := transport.NewStack(eng, transport.Config{CC: transport.DCTCP}, star.Hosts)
	st.SetProfiler(p)
	st.Start(&transport.Flow{ID: st.NewFlowID(), Src: 0, Dst: 1, Size: 1 << 40})
	eng.RunUntil(50 * sim.Millisecond) // warm pools, slow start, and the scope tree
	if a := testing.AllocsPerRun(10, func() {
		eng.RunUntil(eng.Now() + 100*sim.Microsecond)
	}); a != 0 { //tcnlint:floatexact zero-alloc assertion, exact by definition
		b.Fatalf("profiled packet path allocates: %v allocs/run", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := eng.Executed
	for i := 0; i < b.N; i++ {
		eng.RunUntil(eng.Now() + sim.Millisecond)
	}
	b.StopTimer()
	p.FinishEngine(eng)
	events, simNs := p.Totals()
	if events != eng.Executed || simNs != int64(eng.Now()) {
		b.Fatalf("profiler totals events=%d sim=%d, want %d/%d",
			events, simNs, eng.Executed, int64(eng.Now()))
	}
	b.ReportMetric(float64(eng.Executed)/float64(b.N), "events/op")
	if el := b.Elapsed().Seconds(); el > 0 {
		b.ReportMetric(float64(eng.Executed-start)/el, "events/sec")
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// BenchmarkAblationProbabilisticTCN compares plain TCN with the RED-like
// probabilistic variant (§4.3) on synchronized long-lived ECN* flows.
// Deterministic single-threshold marking cuts all flows in the same RTT;
// probabilistic marking desynchronizes the cuts, which is what transports
// like DCQCN rely on for fairness. Reported metric: Jain's fairness index
// over per-flow goodput (1.0 = perfectly fair).
func BenchmarkAblationProbabilisticTCN(b *testing.B) {
	run := func(prob bool) float64 {
		eng := sim.NewEngine()
		rng := sim.NewRand(1)
		net := fabric.NewStar(eng, fabric.StarConfig{
			Hosts:     5,
			Rate:      fabric.Gbps,
			Prop:      2500 * sim.Nanosecond,
			HostDelay: 120 * sim.Microsecond,
			SwitchPort: func() fabric.PortConfig {
				var m core.Marker
				if prob {
					m = core.NewProbTCN(128*sim.Microsecond, 384*sim.Microsecond, 0.2, rng)
				} else {
					m = core.NewTCN(256 * sim.Microsecond)
				}
				return fabric.PortConfig{Queues: 1, BufferBytes: 96_000, Marker: m}
			},
		})
		st := transport.NewStack(eng, transport.Config{CC: transport.ECNStar, RTOMin: 10 * sim.Millisecond}, net.Hosts)
		delivered := map[pkt.FlowID]float64{}
		st.OnDeliver = func(_ sim.Time, f *transport.Flow, n int) { delivered[f.ID] += float64(n) }
		for src := 0; src < 4; src++ {
			st.Start(&transport.Flow{ID: st.NewFlowID(), Src: src, Dst: 4, Size: 1 << 40})
		}
		eng.RunUntil(2 * sim.Second)
		return metrics.JainFairness(delivered, len(delivered))
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(false), "jain-plain-TCN")
		b.ReportMetric(run(true), "jain-prob-TCN")
	}
}

// BenchmarkAblationBufferModel contrasts the paper's fully shared port
// buffer against static per-queue partitioning under the prioritized
// workload. Sharing lets low-priority backlogs kill high-priority packets
// (the §6.1.3 effect TCN mitigates); partitioning protects the strict
// queue but wastes memory on idle queues.
func BenchmarkAblationBufferModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		shared := experiments.RunTestbedFCT(experiments.TestbedFCTConfig{
			Scheme: experiments.SchemeTCN, Sched: experiments.SchedSPDWRR,
			PIAS: true, Load: 0.9, Flows: 800, Seed: 1,
		})
		part := experiments.RunTestbedFCT(experiments.TestbedFCTConfig{
			Scheme: experiments.SchemeTCN, Sched: experiments.SchedSPDWRR,
			PIAS: true, Load: 0.9, Flows: 800, Seed: 1, PartitionBuffer: true,
		})
		b.ReportMetric(us(shared.Stats.P99Small), "shared-p99-small-us")
		b.ReportMetric(us(part.Stats.P99Small), "partitioned-p99-small-us")
		b.ReportMetric(float64(part.Drops)/float64(max(shared.Drops, 1)), "part/shared-drops")
	}
}

// BenchmarkDCQCNMarking runs the §4.3 DCQCN extension experiment: plain
// cut-off TCN vs RED-like probabilistic TCN under rate-based congestion
// control (the paper's named future work).
func BenchmarkDCQCNMarking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plain := experiments.RunDCQCNMarking(experiments.DefaultDCQCNMarking())
		cfg := experiments.DefaultDCQCNMarking()
		cfg.Probabilistic = true
		prob := experiments.RunDCQCNMarking(cfg)
		b.ReportMetric(plain.AggGbps, "plain-agg-Gbps")
		b.ReportMetric(prob.AggGbps, "prob-agg-Gbps")
		b.ReportMetric(prob.Jain, "prob-jain")
	}
}

// BenchmarkObsOverheadFig1 measures the cost of full observability —
// registry counters, sojourn/occupancy histograms, marker instruments, and
// the packet tracer — against the identical uninstrumented run. The
// acceptance budget is <10% wall-clock; compare the two sub-benchmarks'
// ns/op.
func BenchmarkObsOverheadFig1(b *testing.B) {
	base := func() experiments.Fig1Config {
		cfg := experiments.DefaultFig1()
		cfg.FlowCounts = []int{8}
		cfg.Duration = sim.Second
		return cfg
	}
	b.Run("bare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			experiments.RunFig1(base())
		}
	})
	b.Run("instrumented", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := base()
			cfg.Obs = &experiments.Obs{
				Registry: obs.NewRegistry(),
				Tracer:   trace.New(4096),
			}
			experiments.RunFig1(cfg)
		}
	})
}

// BenchmarkMarkingReactionTime measures the §4.3 "faster reaction to
// bursty traffic" claim directly: a step burst arrives at an idle qdisc
// and we record the delay until each scheme's first CE mark. TCN marks
// the first packet whose own sojourn crosses the threshold; CoDel must
// first observe a full interval of persistently high sojourn.
func BenchmarkMarkingReactionTime(b *testing.B) {
	firstMark := func(m core.Marker) sim.Time {
		eng := sim.NewEngine()
		var at sim.Time = -1
		q := qdisc.New(eng, qdisc.Config{
			Queues:   1,
			LineRate: fabric.Gbps,
			Marker:   m,
			Transmit: func(now sim.Time, p *pkt.Packet) {
				if at < 0 && p.ECN == pkt.CE {
					at = now
				}
			},
		})
		for i := 0; i < 400; i++ { // 600 KB step burst, drains in ~4.8 ms
			q.Enqueue(&pkt.Packet{Size: 1500, ECN: pkt.ECT0})
		}
		eng.Run()
		return at
	}
	for i := 0; i < b.N; i++ {
		tcn := firstMark(core.NewTCN(256 * sim.Microsecond))
		codel := firstMark(aqm.NewCoDel(1, sim.Time(51200), 1024*sim.Microsecond))
		b.ReportMetric(us(tcn), "tcn-first-mark-us")
		b.ReportMetric(us(codel), "codel-first-mark-us")
	}
}

// BenchmarkFlightSamplerRecord measures the flight recorder's sampler
// hot path — one probe read plus one ring append — including the
// in-place downsampling compactions as the ring wraps. Every sampler
// tick runs inside the simulation event loop, so the path must stay
// allocation-free; the bench asserts that with AllocsPerRun before
// timing. Baseline on the CI container: ~3 ns/op, 0 allocs/op.
func BenchmarkFlightSamplerRecord(b *testing.B) {
	rec := flight.New(flight.Config{SeriesCap: 4096})
	s := rec.Series("bench.depth_bytes")
	depth := 0.0
	probe := func(now sim.Time) float64 {
		depth += 1500
		if depth > 1e6 {
			depth = 0
		}
		return depth
	}
	var at sim.Time
	record := func() {
		at += 100 * sim.Microsecond
		s.Record(at, probe(at))
	}
	for i := 0; i < 2*4096; i++ {
		record() // warm past the first compactions
	}
	if a := testing.AllocsPerRun(1000, record); a != 0 { //tcnlint:floatexact zero-alloc assertion, exact by definition
		b.Fatalf("sampler hot path allocates: %v allocs/op", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		record()
	}
}

// BenchmarkFlightSpanEvent measures the span tracker's per-packet event
// path (enqueue + transmit for a resident flow). In steady state —
// every flow already admitted through the reservoir — the path is one
// map lookup plus field updates and must not allocate. Baseline on the
// CI container: ~30 ns/op for the pair, 0 allocs/op.
func BenchmarkFlightSpanEvent(b *testing.B) {
	tr := flight.NewSpanTracker(1024, 1)
	pkts := make([]*pkt.Packet, 1024)
	for i := range pkts {
		pkts[i] = &pkt.Packet{Flow: pkt.FlowID(i), Kind: pkt.Data, Size: 1500, ECN: pkt.ECT0}
		tr.Enqueue(0, pkts[i]) // admit every flow up front
	}
	var at sim.Time
	i := 0
	event := func() {
		at += sim.Microsecond
		p := pkts[i&1023]
		i++
		tr.Enqueue(at, p)
		tr.Transmit(at+10*sim.Microsecond, p, 10*sim.Microsecond, i%8 == 0)
	}
	if a := testing.AllocsPerRun(1000, event); a != 0 { //tcnlint:floatexact zero-alloc assertion, exact by definition
		b.Fatalf("span event path allocates: %v allocs/op", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		event()
	}
}

// BenchmarkPerfCampaignRecord measures the self-telemetry per-cell path:
// a tracker claim/finish pair plus the end-of-cell engine and pool
// report. Like the flight recorder's hot paths it must stay
// allocation-free — the campaign observes the simulator without ever
// perturbing it, so everything is a handful of atomic ops. The fake
// clock keeps this bench wall-clock free and deterministic.
func BenchmarkPerfCampaignRecord(b *testing.B) {
	var fakeNow int64
	camp := perf.NewCampaign(func() int64 { fakeNow += 1000; return fakeNow })
	camp.SweepStart(4, 1<<30)
	eng := sim.NewEngine()
	eng.SetMeter(camp.Meter())
	eng.At(0, func() {})
	eng.Run() // touch the counters so ReportEngine folds real values
	var pool pkt.Pool
	pool.Put(pool.Get())
	i := 0
	record := func() {
		w := i & 3
		camp.CellStart(w, i)
		camp.ReportEngine(eng)
		camp.ReportPool(&pool)
		camp.CellDone(w, i)
		i++
	}
	if a := testing.AllocsPerRun(1000, record); a != 0 { //tcnlint:floatexact zero-alloc assertion, exact by definition
		b.Fatalf("perf campaign record path allocates: %v allocs/op", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		record()
	}
}

// BenchmarkTDigestAdd measures the streaming FCT sketch's per-sample
// path, including the periodic sort+compress flushes as the buffer
// cycles. The digest replaces per-flow slice accumulation in the sweep
// runners, so its record path must not allocate either — all merge
// scratch space is preallocated at construction.
func BenchmarkTDigestAdd(b *testing.B) {
	d := metrics.NewTDigest(metrics.DefaultCompression)
	x := 17.0
	add := func() {
		// A deterministic spread wide enough to exercise compression.
		x = x*1.7 + 3
		if x > 1e9 {
			x = 17
		}
		d.Add(x)
	}
	for i := 0; i < 1<<14; i++ {
		add() // warm past the first flushes
	}
	if a := testing.AllocsPerRun(10000, add); a != 0 { //tcnlint:floatexact zero-alloc assertion, exact by definition
		b.Fatalf("t-digest record path allocates: %v allocs/op", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		add()
	}
	b.ReportMetric(d.Quantile(0.99), "p99-estimate")
}

package experiments

import (
	"fmt"

	"tcn/internal/fabric"
	"tcn/internal/metrics"
	"tcn/internal/pias"
	"tcn/internal/sim"
	"tcn/internal/transport"
	"tcn/internal/workload"
)

// TestbedFCTConfig drives the testbed FCT experiments: inter-service
// isolation (§6.1.2, Figures 6-7) and traffic prioritization with PIAS
// (§6.1.3, Figures 8-9). Eight servers send web-search flows to one
// client over a 1 GbE star; flows are randomly spread over four service
// queues; the prioritization variant adds a strict queue fed by PIAS.
type TestbedFCTConfig struct {
	// Scheme is the marking scheme.
	Scheme Scheme
	// Sched is the low-priority discipline: SchedDWRR/SchedWFQ for
	// isolation, SchedSPDWRR/SchedSPWFQ for prioritization.
	Sched SchedKind
	// Load is the target utilization of the client's access link.
	Load float64
	// Flows is the number of flows to run (paper: 5000).
	Flows int
	// PIAS enables the two-priority tagging (requires an SP scheduler).
	PIAS bool
	// PartitionBuffer statically splits the 96 KB port buffer equally
	// among the queues instead of sharing it (buffer-model ablation).
	PartitionBuffer bool
	// Seed feeds all randomness; identical seeds produce identical
	// arrival plans across schemes, as in the paper's methodology.
	Seed int64
	// ExactFCT retains every per-flow record and computes P99 by exact
	// nearest-rank instead of the default bounded-memory streaming
	// t-digest. Averages and counts are identical either way; the
	// determinism harness and record dumps set this.
	ExactFCT bool
	// Deadline bounds the run (0 = generous default).
	Deadline sim.Time
	// Obs, if non-nil, receives per-port stats and packet traces.
	Obs *Obs
	// ObsLabel prefixes the instrument names (default
	// <scheme>.<sched>.load<load>, which sweeps override per cell).
	ObsLabel string
}

// TestbedFCTResult is one (scheme, load) cell of Figures 6-9.
type TestbedFCTResult struct {
	Scheme     Scheme
	Sched      SchedKind
	Load       float64
	Stats      metrics.FCTStats
	Records    []metrics.FlowRecord
	Unfinished int
	Drops      int
	Marks      int64
}

// Validate checks the configuration's internal consistency.
func (cfg TestbedFCTConfig) Validate() error {
	if cfg.PIAS != (cfg.Sched == SchedSPDWRR || cfg.Sched == SchedSPWFQ) {
		return fmt.Errorf("experiments: PIAS=%v requires an SP composite scheduler, got %s", cfg.PIAS, cfg.Sched)
	}
	if !cfg.Sched.SupportsScheme(cfg.Scheme) {
		return fmt.Errorf("experiments: %s does not run over %s", cfg.Scheme, cfg.Sched)
	}
	if cfg.Load <= 0 || cfg.Load > 1 {
		return fmt.Errorf("experiments: load %v out of (0,1]", cfg.Load)
	}
	return nil
}

// RunTestbedFCT executes one cell.
func RunTestbedFCT(cfg TestbedFCTConfig) TestbedFCTResult {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	eng := sim.NewEngine()
	cfg.Obs.AttachEngine(eng)
	rng := sim.NewRand(cfg.Seed)
	cfg.Obs.AttachRand(eng, rng)

	const (
		services = 4
		recv     = 8
		kBytes   = 32_000
	)
	rttLambda := 256 * sim.Microsecond

	queues := services
	high := 0
	if cfg.PIAS {
		queues = services + 1
		high = 1
	}
	pp := PortParams{
		Queues:         queues,
		HighQueues:     high,
		Buffer:         96_000,
		PerQueueBuffer: 0,
		Quantum:        1500,
		RTTLambda:      rttLambda,
		KBytes:         kBytes,
		CoDelTarget:    sim.Time(51.2 * 1000),
		CoDelInterval:  1024 * sim.Microsecond,
		TIdle:          fabric.Gbps.Serialize(1500),
	}
	if cfg.PartitionBuffer {
		pp.PerQueueBuffer = pp.Buffer / queues
	}
	net := fabric.NewStar(eng, fabric.StarConfig{
		Hosts:      9,
		Rate:       fabric.Gbps,
		Prop:       2500 * sim.Nanosecond,
		HostDelay:  120 * sim.Microsecond,
		SwitchPort: pp.Factory(cfg.Scheme, cfg.Sched, rng),
	})
	if cfg.Obs != nil {
		label := cfg.ObsLabel
		if label == "" {
			label = fmt.Sprintf("%s.%s.load%g", cfg.Scheme, cfg.Sched, cfg.Load)
		}
		cfg.Obs.AttachStar(label, net)
	}
	tc := transport.Config{
		CC:     transport.DCTCP,
		RTOMin: 10 * sim.Millisecond,
	}
	if cfg.PIAS {
		// ACKs ride the strict queue, as operators prioritize them
		// (§2.2).
		tc.AckDSCP = func(*transport.Flow) uint8 { return 0 }
	}
	st := transport.NewStack(eng, tc, net.Hosts)
	cfg.Obs.AttachTransport(st)

	// Plan the arrivals: web-search flows from the 8 servers to the
	// client, randomly assigned to the service queues.
	senders := []int{0, 1, 2, 3, 4, 5, 6, 7}
	cdfs := map[uint8]workload.CDF{}
	for s := 0; s < services; s++ {
		cdfs[uint8(s)] = workload.WebSearch
	}
	plan := workload.Plan(rng, workload.PlanConfig{
		Flows:      cfg.Flows,
		Load:       cfg.Load,
		Bottleneck: fabric.Gbps,
		CDFs:       cdfs,
		Pair:       workload.ManyToOne(senders, recv),
		Class:      func(r *sim.Rand) uint8 { return uint8(r.Intn(services)) },
	})

	col := newFCTCollector(cfg.ExactFCT)
	cfg.Obs.AttachFCT(eng, col)
	st.OnMessage = func(m *transport.Message) {
		col.Record(metrics.FlowRecord{Size: m.Size, FCT: m.FCT(), Class: m.Class, Timeouts: m.Timeouts})
	}

	// The paper's client pre-opens 5 persistent connections per server
	// and submits each flow (message) on an idle one, so congestion
	// state persists across flows.
	pool := transport.NewPool(st, 5)
	for _, spec := range plan {
		spec := spec
		m := &transport.Message{Size: spec.Size, Class: spec.Class}
		if cfg.PIAS {
			// Service queues sit above the strict queue: class c maps
			// to queue c+1; the first 100 KB go to queue 0.
			m.Class = spec.Class + 1
			m.Tag = pias.Tag(0, spec.Class+1, pias.DefaultThreshold)
		}
		eng.At(spec.At, func() { pool.Submit(spec.Src, spec.Dst, m) })
	}

	deadline := cfg.Deadline
	if deadline == 0 {
		deadline = plan[len(plan)-1].At + 60*sim.Second
	}
	eng.RunUntil(deadline)

	res := TestbedFCTResult{
		Scheme:     cfg.Scheme,
		Sched:      cfg.Sched,
		Load:       cfg.Load,
		Stats:      col.Stats(),
		Records:    col.Records(),
		Unfinished: cfg.Flows - col.Count(),
	}
	for i := 0; i < net.Switch.NumPorts(); i++ {
		res.Drops += net.Switch.Port(i).Buffer().TotalDrops()
	}
	res.Marks = markCount(net.Switch.Port(recv).Marker())
	cfg.Obs.ReportCell(eng, st.Pool(), net.Switch)
	cfg.Obs.ReportFCT(col)
	return res
}

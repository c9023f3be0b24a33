package experiments

import (
	"fmt"
	"slices"

	"tcn/internal/fabric"
	"tcn/internal/metrics"
	"tcn/internal/parallel"
	"tcn/internal/pias"
	"tcn/internal/sim"
	"tcn/internal/transport"
	"tcn/internal/workload"
)

// LeafSpineConfig drives the large-scale simulations of §6.2 (Figures
// 10-13): a leaf-spine fabric whose switch ports run one strict queue for
// PIAS high-priority traffic plus N service queues under DWRR or WFQ;
// host pairs are partitioned into services, each drawing flow sizes from
// one of the four production workloads.
type LeafSpineConfig struct {
	// Scheme is the marking scheme.
	Scheme Scheme
	// Sched is SchedSPDWRR or SchedSPWFQ.
	Sched SchedKind
	// CC selects DCTCP (Figures 10-11) or ECN* (Figures 12-13).
	CC transport.CC
	// Load is the target utilization of the host access links.
	Load float64
	// Flows is the number of messages (paper: 50000).
	Flows int
	// Services is the number of low-priority service queues (paper: 7
	// for Figures 10-12, 31 for Figure 13).
	Services int
	// Leaves, Spines, HostsPerLeaf size the fabric (paper: 12/12/12;
	// tests shrink it).
	Leaves, Spines, HostsPerLeaf int
	// Seed feeds all randomness.
	Seed int64
	// Deadline bounds the run (0 = generous default).
	Deadline sim.Time
	// ExactFCT retains per-flow records and exact P99 instead of the
	// default streaming t-digest (see TestbedFCTConfig.ExactFCT).
	ExactFCT bool
	// Obs, if non-nil, receives per-port stats and packet traces,
	// labelled <scheme>.<sched>.load<load>.sw<id>.p<i>.
	Obs *Obs
}

// DefaultLeafSpine returns the paper's fabric with a CI-sized flow count.
func DefaultLeafSpine() LeafSpineConfig {
	return LeafSpineConfig{
		Scheme:       SchemeTCN,
		Sched:        SchedSPDWRR,
		CC:           transport.DCTCP,
		Load:         0.9,
		Flows:        2000,
		Services:     7,
		Leaves:       12,
		Spines:       12,
		HostsPerLeaf: 12,
		Seed:         1,
	}
}

// LeafSpineResult is one (scheme, load) cell of Figures 10-13.
type LeafSpineResult struct {
	Scheme     Scheme
	Sched      SchedKind
	Load       float64
	Stats      metrics.FCTStats
	Records    []metrics.FlowRecord
	Unfinished int
	Drops      int
}

// Validate checks the configuration.
func (cfg LeafSpineConfig) Validate() error {
	if cfg.Sched != SchedSPDWRR && cfg.Sched != SchedSPWFQ {
		return fmt.Errorf("experiments: leaf-spine uses SP composites, got %s", cfg.Sched)
	}
	if !cfg.Sched.SupportsScheme(cfg.Scheme) {
		return fmt.Errorf("experiments: %s does not run over %s", cfg.Scheme, cfg.Sched)
	}
	if cfg.Services < 1 || cfg.Flows <= 0 || cfg.Load <= 0 || cfg.Load > 1 {
		return fmt.Errorf("experiments: bad leaf-spine parameters %+v", cfg)
	}
	return nil
}

// RunLeafSpine executes one cell.
func RunLeafSpine(cfg LeafSpineConfig) LeafSpineResult {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	eng := sim.NewEngine()
	cfg.Obs.AttachEngine(eng)
	rng := sim.NewRand(cfg.Seed)
	cfg.Obs.AttachRand(eng, rng)

	// Thresholds per §6.2: DCTCP uses 65 packets / 78 us; ECN* uses 84
	// packets / 101 us (both at 10 Gbps).
	kBytes := 65 * 1500
	rttLambda := 78 * sim.Microsecond
	if cfg.CC == transport.ECNStar {
		kBytes = 84 * 1500
		rttLambda = 101 * sim.Microsecond
	}

	rate := 10 * fabric.Gbps
	pp := PortParams{
		Queues:        1 + cfg.Services,
		HighQueues:    1,
		Buffer:        300_000,
		Quantum:       1500,
		RTTLambda:     rttLambda,
		KBytes:        kBytes,
		CoDelTarget:   rttLambda / 5,
		CoDelInterval: 4 * rttLambda,
		TIdle:         rate.Serialize(1500),
	}
	net := fabric.NewLeafSpine(eng, fabric.LeafSpineConfig{
		Leaves:       cfg.Leaves,
		Spines:       cfg.Spines,
		HostsPerLeaf: cfg.HostsPerLeaf,
		HostRate:     rate,
		SpineRate:    rate,
		Prop:         650 * sim.Nanosecond,
		HostDelay:    40 * sim.Microsecond,
		SwitchPort:   pp.Factory(cfg.Scheme, cfg.Sched, rng),
	})
	cfg.Obs.AttachLeafSpine(fmt.Sprintf("%s.%s.load%g", cfg.Scheme, cfg.Sched, cfg.Load), net)
	st := transport.NewStack(eng, transport.Config{
		CC:         cfg.CC,
		RTOMin:     5 * sim.Millisecond,
		RTOInit:    5 * sim.Millisecond,
		InitWindow: 16,
		AckDSCP:    func(*transport.Flow) uint8 { return 0 },
	}, net.Hosts)
	cfg.Obs.AttachTransport(st)

	hosts := len(net.Hosts)
	all := make([]int, hosts)
	for i := range all {
		all[i] = i
	}
	// Each service uses one of the four workloads, cycling as the paper
	// assigns its 7 services across Figure 4's distributions. Service s
	// occupies queue s+1 (queue 0 is the PIAS high-priority queue).
	cdfs := map[uint8]workload.CDF{}
	for s := 0; s < cfg.Services; s++ {
		cdfs[uint8(s)] = workload.All[s%len(workload.All)]
	}
	plan := workload.Plan(rng, workload.PlanConfig{
		Flows: cfg.Flows,
		Load:  cfg.Load,
		// Load is defined on host access links; the fabric carries
		// hosts × rate in aggregate.
		Bottleneck: fabric.Rate(hosts) * rate,
		CDFs:       cdfs,
		Pair:       workload.UniformPairs(all, all),
		Class:      func(r *sim.Rand) uint8 { return uint8(r.Intn(cfg.Services)) },
	})

	col := newFCTCollector(cfg.ExactFCT)
	cfg.Obs.AttachFCT(eng, col)
	st.OnDone = func(f *transport.Flow) {
		col.Record(metrics.FlowRecord{Size: f.Size, FCT: f.FCT(), Class: f.Class, Timeouts: f.Timeouts})
	}

	// ns-2 semantics: every flow is a fresh connection starting at the
	// initial window (16 packets), unlike the testbed's persistent
	// connections — the resulting burstiness is part of what Figures
	// 10-13 measure (timeout counts for small flows).
	for _, spec := range plan {
		f := &transport.Flow{
			ID:    st.NewFlowID(),
			Src:   spec.Src,
			Dst:   spec.Dst,
			Size:  spec.Size,
			Class: spec.Class + 1,
			Tag:   pias.Tag(0, spec.Class+1, pias.DefaultThreshold),
		}
		st.StartAt(spec.At, f)
	}

	deadline := cfg.Deadline
	if deadline == 0 {
		deadline = plan[len(plan)-1].At + 120*sim.Second
	}
	eng.RunUntil(deadline)

	res := LeafSpineResult{
		Scheme:     cfg.Scheme,
		Sched:      cfg.Sched,
		Load:       cfg.Load,
		Stats:      col.Stats(),
		Records:    col.Records(),
		Unfinished: cfg.Flows - col.Count(),
	}
	for _, p := range net.SwitchPorts() {
		res.Drops += p.Buffer().TotalDrops()
	}
	cfg.Obs.ReportCell(eng, st.Pool(), slices.Concat(net.Leaves, net.Spines)...)
	cfg.Obs.ReportFCT(col)
	return res
}

// LeafSpineSweep mirrors FCTSweep for the large-scale figures.
type LeafSpineSweep struct {
	Figure  string
	Sched   SchedKind
	Loads   []float64
	Schemes []Scheme
	Cells   [][]LeafSpineResult
}

// runLeafSpineSweep executes a figure's grid over the base config, fanning
// cells out over workers (clamped to serial when base.Obs is attached).
func runLeafSpineSweep(figure string, base LeafSpineConfig, loads []float64, schemes []Scheme, workers int) LeafSpineSweep {
	kept := schemes[:0:0]
	for _, s := range schemes {
		if base.Sched.SupportsScheme(s) {
			kept = append(kept, s)
		}
	}
	sw := LeafSpineSweep{Figure: figure, Sched: base.Sched, Loads: loads, Schemes: kept}
	cols := len(loads)
	flat := parallel.RunTracked(sweepWorkers(workers, base.Obs), len(kept)*cols, base.Obs.Tracker(),
		func(i int) LeafSpineResult {
			c := base
			c.Scheme = kept[i/cols]
			c.Load = loads[i%cols]
			return RunLeafSpine(c)
		})
	sw.Cells = gridRows(flat, len(kept), cols)
	return sw
}

// LeafSpineSweepConfig shapes Figures 10-13 sweeps.
type LeafSpineSweepConfig struct {
	Loads   []float64
	Flows   int
	Seed    int64
	Schemes []Scheme
	// Leaves/Spines/HostsPerLeaf shrink the fabric for CI (0 = paper's
	// 12/12/12).
	Leaves, Spines, HostsPerLeaf int
	// ExactFCT switches every cell to exact per-flow record retention
	// (see LeafSpineConfig.ExactFCT).
	ExactFCT bool
	// Obs, if non-nil, receives per-port stats and packet traces for
	// every cell. Attaching any sink forces serial execution.
	Obs *Obs
	// Workers bounds the number of cells evaluated concurrently; <= 1
	// runs serially. Results are identical at any width.
	Workers int
}

func (c LeafSpineSweepConfig) base() LeafSpineConfig {
	b := DefaultLeafSpine()
	if c.Flows > 0 {
		b.Flows = c.Flows
	}
	if c.Seed != 0 {
		b.Seed = c.Seed
	}
	if c.Leaves > 0 {
		b.Leaves, b.Spines, b.HostsPerLeaf = c.Leaves, c.Spines, c.HostsPerLeaf
	}
	b.ExactFCT = c.ExactFCT
	b.Obs = c.Obs
	return b
}

func (c LeafSpineSweepConfig) schemes() []Scheme {
	if c.Schemes != nil {
		return c.Schemes
	}
	return []Scheme{SchemeTCN, SchemeCoDel, SchemeRED}
}

// RunFig10 is SP/DWRR with DCTCP (Figure 10).
func RunFig10(c LeafSpineSweepConfig) LeafSpineSweep {
	b := c.base()
	b.Sched = SchedSPDWRR
	return runLeafSpineSweep("fig10", b, c.Loads, c.schemes(), c.Workers)
}

// RunFig11 is SP/WFQ with DCTCP (Figure 11).
func RunFig11(c LeafSpineSweepConfig) LeafSpineSweep {
	b := c.base()
	b.Sched = SchedSPWFQ
	return runLeafSpineSweep("fig11", b, c.Loads, c.schemes(), c.Workers)
}

// RunFig12 is SP/DWRR with ECN* (Figure 12).
func RunFig12(c LeafSpineSweepConfig) LeafSpineSweep {
	b := c.base()
	b.Sched = SchedSPDWRR
	b.CC = transport.ECNStar
	return runLeafSpineSweep("fig12", b, c.Loads, c.schemes(), c.Workers)
}

// RunFig13 is SP/DWRR with ECN* and 32 queues (Figure 13).
func RunFig13(c LeafSpineSweepConfig) LeafSpineSweep {
	b := c.base()
	b.Sched = SchedSPDWRR
	b.CC = transport.ECNStar
	b.Services = 31
	return runLeafSpineSweep("fig13", b, c.Loads, c.schemes(), c.Workers)
}

// Cell returns the result for a scheme at a load, or nil.
func (sw *LeafSpineSweep) Cell(s Scheme, load float64) *LeafSpineResult {
	for i, sc := range sw.Schemes {
		if sc != s {
			continue
		}
		for j, l := range sw.Loads {
			if l == load { //tcnlint:floatexact looks up the exact configured load value
				return &sw.Cells[i][j]
			}
		}
	}
	return nil
}

package main

import (
	"fmt"
	"math/rand"
	"strings"

	"tcn/internal/experiments"
	"tcn/internal/fabric"
	"tcn/internal/metrics"
	"tcn/internal/obs"
	"tcn/internal/sim"
	"tcn/internal/workload"
)

// A family is one network set-up whose inputs the workloads share: the
// Fig 6 testbed star or the Fig 10 leaf-spine. Each family has a pool of
// poolSize inputs with stored reference results (reference.json).
type family string

const (
	famFig6  family = "fig6"
	famFig10 family = "fig10"
)

// poolSize is the number of distinct inputs per family. A run draws its
// inputs from the pool, so every seed has stored references.
const poolSize = 24

// Flow counts per cell. Offered work is pinned as well (see findInput),
// so a run's cost depends on the code, not on which inputs the seed drew.
const (
	fig6Flows  = 400
	fig10Flows = 200
)

// Leaf-spine shape of the Fig 10 cell: 4 leaves × 4 spines × 4 hosts per
// leaf, 16 hosts in all.
const (
	lsLeaves       = 4
	lsSpines       = 4
	lsHostsPerLeaf = 4
	lsServices     = 7
)

// fig6Load is the load of the Fig 6 cells.
const fig6Load = 0.9

// workTolerance is how far an input's offered work may sit from the
// family's target.
const workTolerance = 0.02

type workloadDef struct {
	name    string
	family  family
	schemes []experiments.Scheme
	// observed attaches every experiments.Obs sink to the timed runs.
	observed bool
	// inputs is how many distinct pool inputs one run cycles through.
	inputs int
}

var workloads = []workloadDef{
	{name: "fig6-testbed", family: famFig6, schemes: []experiments.Scheme{experiments.SchemeTCN, experiments.SchemeRED}, inputs: 16},
	{name: "fig10-leafspine", family: famFig10, schemes: []experiments.Scheme{experiments.SchemeTCN}, inputs: 16},
	{name: "fig6-observed", family: famFig6, schemes: []experiments.Scheme{experiments.SchemeTCN}, observed: true, inputs: 8},
}

func lookupWorkload(name string) (*workloadDef, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// input is one cell input: the seed the runner plans its arrivals from
// and the flow count.
type input struct {
	Index    int   `json:"index"`
	PlanSeed int64 `json:"plan_seed"`
	Flows    int   `json:"flows"`
}

func familyFlows(f family) int {
	if f == famFig10 {
		return fig10Flows
	}
	return fig6Flows
}

// planConfig mirrors the arrival plan RunTestbedFCT (Fig 6, DWRR, no
// PIAS) and RunLeafSpine build from their random stream, so the benchmark
// can size inputs and time planning without running a cell.
func planConfig(f family, flows int) workload.PlanConfig {
	if f == famFig10 {
		cdfs := map[uint8]workload.CDF{}
		for s := 0; s < lsServices; s++ {
			cdfs[uint8(s)] = workload.All[s%len(workload.All)]
		}
		hosts := make([]int, lsLeaves*lsHostsPerLeaf)
		for i := range hosts {
			hosts[i] = i
		}
		return workload.PlanConfig{
			Flows:      flows,
			Load:       0.9,
			Bottleneck: fabric.Rate(len(hosts)) * 10 * fabric.Gbps,
			CDFs:       cdfs,
			Pair:       workload.UniformPairs(hosts, hosts),
			Class:      func(r *sim.Rand) uint8 { return uint8(r.Intn(lsServices)) },
		}
	}
	cdfs := map[uint8]workload.CDF{}
	for s := 0; s < 4; s++ {
		cdfs[uint8(s)] = workload.WebSearch
	}
	return workload.PlanConfig{
		Flows:      flows,
		Load:       fig6Load,
		Bottleneck: fabric.Gbps,
		CDFs:       cdfs,
		Pair:       workload.ManyToOne([]int{0, 1, 2, 3, 4, 5, 6, 7}, 8),
		Class:      func(r *sim.Rand) uint8 { return uint8(r.Intn(4)) },
	}
}

// hops is the number of egress ports a flow's data crosses: host NIC plus
// one switch port in the star; in the leaf-spine, two within a leaf and
// four across the spine.
func hops(f family, src, dst int) int {
	if f == famFig10 && src/lsHostsPerLeaf != dst/lsHostsPerLeaf {
		return 4
	}
	return 2
}

// offeredWork is Σ size × hops over a plan: the packet-hops a cell must
// simulate, which sets its event count.
func offeredWork(f family, plan []workload.FlowSpec) float64 {
	var w float64
	for _, s := range plan {
		w += float64(s.Size) * float64(hops(f, s.Src, s.Dst))
	}
	return w
}

// targetWork is the expected offered work of a plan of flows flows:
// flows × E[size] × E[hops], classes and host pairs drawn uniformly.
func targetWork(f family, flows int) float64 {
	cfg := planConfig(f, flows)
	var size float64
	for _, c := range cfg.CDFs {
		size += c.Mean()
	}
	size /= float64(len(cfg.CDFs))
	var h, pairs float64
	if f == famFig10 {
		n := lsLeaves * lsHostsPerLeaf
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s != d {
					h += float64(hops(f, s, d))
					pairs++
				}
			}
		}
	} else {
		h, pairs = 2, 1
	}
	return float64(flows) * size * h / pairs
}

// findInput builds pool input k: the first plan seed, scanning from
// k's own range, whose plan's offered work lies within workTolerance of
// the target. Heavy-tailed sizes (one data-mining flow can be 1 GB)
// otherwise make one input several times as costly as another.
func findInput(f family, k int) (input, error) {
	flows := familyFlows(f)
	cfg := planConfig(f, flows)
	target := targetWork(f, flows)
	base := int64(k+1) * 1_000_000
	for j := int64(0); j < 1_000_000; j++ {
		w := offeredWork(f, workload.Plan(sim.NewRand(base+j), cfg))
		if w > target*(1-workTolerance) && w < target*(1+workTolerance) {
			return input{Index: k, PlanSeed: base + j, Flows: flows}, nil
		}
	}
	return input{}, fmt.Errorf("no plan seed for %s input %d within %.0f%% of the target work", f, k, 100*workTolerance)
}

// pickInputs draws n distinct pool indices from the run's seed.
func pickInputs(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(poolSize)[:n]
}

// Summary is a cell's simulated outcome; two runs of the same input must
// produce equal summaries whatever code path or observer produced them.
type Summary struct {
	Scheme     string `json:"scheme"`
	Flows      int    `json:"flows"`
	AvgSmallNs int64  `json:"avg_small_ns"`
	P99SmallNs int64  `json:"p99_small_ns"`
	AvgLargeNs int64  `json:"avg_large_ns"`
	P99LargeNs int64  `json:"p99_large_ns"`
	Timeouts   int    `json:"timeouts"`
	Drops      int    `json:"drops"`
	// Marks is -1 where the run cannot see marks: RunLeafSpine reports
	// none, so leaf-spine marks come from runs with a stats registry.
	Marks      int64 `json:"marks"`
	Unfinished int   `json:"unfinished"`
}

func summarize(scheme experiments.Scheme, st metrics.FCTStats, recs []metrics.FlowRecord, drops int, marks int64, unfinished int) Summary {
	var large []sim.Time
	for _, r := range recs {
		if r.Size > metrics.LargeFlowMin {
			large = append(large, r.FCT)
		}
	}
	return Summary{
		Scheme:     string(scheme),
		Flows:      st.Flows,
		AvgSmallNs: int64(st.AvgSmall),
		P99SmallNs: int64(st.P99Small),
		AvgLargeNs: int64(st.AvgLarge),
		P99LargeNs: int64(metrics.PercentileTimes(large, 0.99)),
		Timeouts:   st.Timeouts,
		Drops:      drops,
		Marks:      marks,
		Unfinished: unfinished,
	}
}

// diff lists the fields in which got differs from the reference want. A
// run that cannot see marks (Marks == -1) is not compared on them.
func (got Summary) diff(want Summary) []string {
	var d []string
	add := func(name string, g, w int64) {
		if g != w {
			d = append(d, fmt.Sprintf("%s %d != %d", name, g, w))
		}
	}
	if got.Scheme != want.Scheme {
		d = append(d, fmt.Sprintf("scheme %s != %s", got.Scheme, want.Scheme))
	}
	add("flows", int64(got.Flows), int64(want.Flows))
	add("avg_small_ns", got.AvgSmallNs, want.AvgSmallNs)
	add("p99_small_ns", got.P99SmallNs, want.P99SmallNs)
	add("avg_large_ns", got.AvgLargeNs, want.AvgLargeNs)
	add("p99_large_ns", got.P99LargeNs, want.P99LargeNs)
	add("timeouts", int64(got.Timeouts), int64(want.Timeouts))
	add("drops", int64(got.Drops), int64(want.Drops))
	if got.Marks >= 0 {
		add("marks", got.Marks, want.Marks)
	}
	add("unfinished", int64(got.Unfinished), int64(want.Unfinished))
	return d
}

// runCells runs one input of the workload through the public runners and
// returns one summary per scheme, in w.schemes order. o may be nil.
func runCells(w *workloadDef, in input, o *experiments.Obs) []Summary {
	if w.family == famFig10 {
		r := experiments.RunLeafSpine(leafSpineConfig(w.schemes[0], in, o))
		marks := int64(-1)
		if o != nil && o.Registry != nil {
			marks = markerMarks(o.Registry)
		}
		return []Summary{summarize(r.Scheme, r.Stats, r.Records, r.Drops, marks, r.Unfinished)}
	}
	sw := experiments.RunFig6(experiments.SweepConfig{
		Loads:    []float64{fig6Load},
		Flows:    in.Flows,
		Seed:     in.PlanSeed,
		Schemes:  w.schemes,
		ExactFCT: true,
		Obs:      o,
		Workers:  simWorkers,
	})
	out := make([]Summary, 0, len(sw.Cells))
	for _, row := range sw.Cells {
		c := row[0]
		out = append(out, summarize(c.Scheme, c.Stats, c.Records, c.Drops, c.Marks, c.Unfinished))
	}
	return out
}

// leafSpineConfig is the Fig 10 cell of input in: the paper's leaf-spine
// defaults shrunk to the benchmark's fabric.
func leafSpineConfig(scheme experiments.Scheme, in input, o *experiments.Obs) experiments.LeafSpineConfig {
	cfg := experiments.DefaultLeafSpine()
	cfg.Scheme = scheme
	cfg.Flows = in.Flows
	cfg.Seed = in.PlanSeed
	cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = lsLeaves, lsSpines, lsHostsPerLeaf
	cfg.Services = lsServices
	cfg.ExactFCT = true
	cfg.Obs = o
	return cfg
}

// markerMarks sums the CE marks every instrumented marker counted.
func markerMarks(r *obs.Registry) int64 {
	var n int64
	r.WalkCounters(func(name string, c *obs.Counter) {
		if strings.HasSuffix(name, ".marker.marks") {
			n += c.Value()
		}
	})
	return n
}

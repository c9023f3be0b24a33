package experiments

import (
	"encoding/json"
	"math"
	"sort"
	"testing"

	"tcn/internal/digest"
	"tcn/internal/metrics"
	"tcn/internal/obs"
	"tcn/internal/obs/flight"
	"tcn/internal/obs/perf"
	"tcn/internal/trace"
)

// snapshotJSON serializes a sweep result so runs can be compared byte for
// byte: any divergence in any cell — stats, records, drops — shows up.
func snapshotJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// TestTestbedSweepParallelDeterminism asserts that the testbed sweep's
// output is byte-identical at any worker count: every cell owns its engine
// and randomness, so scheduling cannot leak into results.
func TestTestbedSweepParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second workload run")
	}
	cfg := SweepConfig{
		Loads:   []float64{0.5, 0.8},
		Flows:   300,
		Seed:    7,
		Schemes: []Scheme{SchemeTCN, SchemeRED},
	}
	serialCfg, parallelCfg := cfg, cfg
	serialCfg.Workers = 1
	parallelCfg.Workers = 8
	serial := snapshotJSON(t, RunFig6(serialCfg))
	par := snapshotJSON(t, RunFig6(parallelCfg))
	if serial != par {
		t.Fatal("fig6 sweep diverged between workers=1 and workers=8")
	}
}

// TestLeafSpineSweepParallelDeterminism covers the leaf-spine runner the
// same way on a CI-sized fabric.
func TestLeafSpineSweepParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second workload run")
	}
	cfg := LeafSpineSweepConfig{
		Loads: []float64{0.5, 0.9},
		Flows: 200,
		Seed:  7,
		Schemes: []Scheme{
			SchemeTCN, SchemeRED,
		},
		Leaves: 2, Spines: 2, HostsPerLeaf: 2,
	}
	serialCfg, parallelCfg := cfg, cfg
	serialCfg.Workers = 1
	parallelCfg.Workers = 8
	serial := snapshotJSON(t, RunFig10(serialCfg))
	par := snapshotJSON(t, RunFig10(parallelCfg))
	if serial != par {
		t.Fatal("fig10 sweep diverged between workers=1 and workers=8")
	}
}

// TestFig1ParallelDeterminism covers the Figure 1 point sweep.
func TestFig1ParallelDeterminism(t *testing.T) {
	cfg := DefaultFig1()
	cfg.FlowCounts = []int{1, 2, 4}
	cfg.Duration /= 4
	serialCfg, parallelCfg := cfg, cfg
	serialCfg.Workers = 1
	parallelCfg.Workers = 8
	serial := snapshotJSON(t, RunFig1(serialCfg))
	par := snapshotJSON(t, RunFig1(parallelCfg))
	if serial != par {
		t.Fatal("fig1 sweep diverged between workers=1 and workers=8")
	}
}

// TestDCQCNSweepParallelDeterminism covers the DCQCN marking comparison.
func TestDCQCNSweepParallelDeterminism(t *testing.T) {
	cfg := DefaultDCQCNSweep()
	cfg.Senders = []int{2, 4}
	cfg.Base.Warmup /= 4
	cfg.Base.Measure /= 4
	serialCfg, parallelCfg := cfg, cfg
	serialCfg.Workers = 1
	parallelCfg.Workers = 8
	serial := snapshotJSON(t, RunDCQCNSweep(serialCfg))
	par := snapshotJSON(t, RunDCQCNSweep(parallelCfg))
	if serial != par {
		t.Fatal("dcqcn sweep diverged between workers=1 and workers=8")
	}
}

// TestDCQCNSweepObservedClampsWorkers checks that observers force the dcqcn
// sweep serial like every other sweep: cells run on several goroutines
// would interleave their records in the shared fingerprint recorder.
func TestDCQCNSweepObservedClampsWorkers(t *testing.T) {
	run := func(workers int) *digest.Recorder {
		cfg := DefaultDCQCNSweep()
		cfg.Senders = []int{2, 4}
		cfg.Base.Warmup /= 4
		cfg.Base.Measure /= 4
		cfg.Workers = workers
		rec := digest.New(digest.Config{})
		cfg.Base.Obs = &Obs{Fingerprint: rec}
		RunDCQCNSweep(cfg)
		return rec
	}
	serial, par := run(1), run(8)
	rep := digest.Compare(serial.Timeline(), par.Timeline())
	if !rep.Identical {
		t.Fatalf("observed dcqcn sweep diverged between workers=1 and workers=8: %s", rep.Divergence)
	}
	if rep.RecordsA == 0 {
		t.Fatal("fingerprint recorder captured no records")
	}
}

// TestObsInstrumentedParallelRunMatchesBare asserts two things at once:
// attaching the full observability bundle does not perturb sweep results,
// and requesting workers alongside an Obs bundle (which clamps to serial)
// still yields the exact bare-parallel output.
func TestObsInstrumentedParallelRunMatchesBare(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second workload run")
	}
	cfg := SweepConfig{
		Loads:   []float64{0.7},
		Flows:   300,
		Seed:    3,
		Schemes: []Scheme{SchemeTCN},
		Workers: 8,
	}
	bare := snapshotJSON(t, RunFig6(cfg))

	instrumented := cfg
	instrumented.Obs = &Obs{
		Registry: obs.NewRegistry(),
		Tracer:   trace.New(1 << 12),
		Flight:   flight.New(flight.Config{}),
	}
	withObs := snapshotJSON(t, RunFig6(instrumented))
	if bare != withObs {
		t.Fatal("obs-instrumented sweep diverged from bare sweep")
	}
}

// TestStreamingSweepWithCampaignDeterminism is satellite coverage for the
// streaming FCT default: with per-cell t-digests feeding a perf.Campaign,
// the sweep output must still be byte-identical at any worker count (the
// campaign is atomics-only, so unlike the rest of the Obs bundle it does
// not clamp the sweep serial), and the campaign must have seen every cell.
func TestStreamingSweepWithCampaignDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second workload run")
	}
	cfg := LeafSpineSweepConfig{
		Loads:   []float64{0.5, 0.9},
		Flows:   200,
		Seed:    7,
		Schemes: []Scheme{SchemeTCN, SchemeRED},
		Leaves:  2, Spines: 2, HostsPerLeaf: 2,
	}
	serialCfg, parallelCfg := cfg, cfg
	serialCfg.Workers = 1
	serialCfg.Obs = &Obs{Perf: perf.NewCampaign(nil)}
	parallelCfg.Workers = 8
	parallelCfg.Obs = &Obs{Perf: perf.NewCampaign(nil)}

	serial := snapshotJSON(t, RunFig10(serialCfg))
	par := snapshotJSON(t, RunFig10(parallelCfg))
	if serial != par {
		t.Fatal("fig10 streaming sweep diverged between workers=1 and workers=8 with campaigns attached")
	}

	for name, c := range map[string]*perf.Campaign{
		"serial": serialCfg.Obs.Perf, "parallel": parallelCfg.Obs.Perf,
	} {
		s := c.SnapshotNow(true)
		if s.CellsTotal == 0 || s.CellsDone != s.CellsTotal {
			t.Errorf("%s campaign: cells %d/%d", name, s.CellsDone, s.CellsTotal)
		}
		if s.EventsExecuted == 0 || s.LiveEvents == 0 {
			t.Errorf("%s campaign: no engine events folded in (%+v)", name, s)
		}
		if s.PoolAllocs == 0 {
			t.Errorf("%s campaign: no pool counters folded in", name)
		}
		if s.Percentiles == nil {
			t.Errorf("%s campaign: no FCT digest percentiles", name)
		}
	}
}

// TestStreamingStatsMatchExact runs one real testbed cell in both FCT
// collector modes. The contract: every count and integer-sum average is
// bit-identical; only P99Small is an estimate, bounded by the t-digest's
// rank-error guarantee (±1% of rank against the exact sample).
func TestStreamingStatsMatchExact(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second workload run")
	}
	cfg := TestbedFCTConfig{
		Scheme: SchemeTCN,
		Sched:  SchedDWRR,
		Load:   0.8,
		Flows:  600,
		Seed:   7,
	}
	exactCfg := cfg
	exactCfg.ExactFCT = true
	exact := RunTestbedFCT(exactCfg)
	stream := RunTestbedFCT(cfg)

	if len(exact.Records) == 0 {
		t.Fatal("exact mode retained no records")
	}
	if len(stream.Records) != 0 {
		t.Fatalf("streaming mode retained %d records", len(stream.Records))
	}
	if exact.Drops != stream.Drops || exact.Marks != stream.Marks || exact.Unfinished != stream.Unfinished {
		t.Fatalf("simulation outcomes diverged between modes: %+v vs %+v", exact, stream)
	}

	es, ss := exact.Stats, stream.Stats
	esNoP99, ssNoP99 := es, ss
	esNoP99.P99Small, ssNoP99.P99Small = 0, 0
	if esNoP99 != ssNoP99 {
		t.Fatalf("non-P99 stats diverged:\nexact  %+v\nstream %+v", esNoP99, ssNoP99)
	}
	if es.P99Small <= 0 || ss.P99Small <= 0 {
		t.Fatalf("P99Small missing: exact %v, stream %v", es.P99Small, ss.P99Small)
	}
	// The digest's guarantee is on rank: its P99 estimate must land
	// within ±1% of rank 0.99 in the exact small-flow sample. (Relative
	// value error depends on how sparse the tail is — on a few hundred
	// small flows the nearest-rank vs interpolation conventions alone
	// differ by a few percent, so rank is the meaningful bound.)
	var small []float64
	for _, r := range exact.Records {
		if r.Size <= metrics.SmallFlowMax {
			small = append(small, float64(r.FCT))
		}
	}
	sort.Float64s(small)
	rank := float64(sort.SearchFloat64s(small, float64(ss.P99Small))) / float64(len(small))
	if math.Abs(rank-0.99) > 0.01 {
		t.Fatalf("streaming P99Small %v lands at rank %.4f of the exact sample (want 0.99±0.01; exact P99 %v)",
			ss.P99Small, rank, es.P99Small)
	}
	rel := math.Abs(float64(ss.P99Small-es.P99Small)) / float64(es.P99Small)
	if rel > 0.10 {
		t.Fatalf("streaming P99Small %v vs exact %v: relative error %.4f > 10%%",
			ss.P99Small, es.P99Small, rel)
	}
	t.Logf("P99Small exact %v, streaming %v (rank %.4f, relative error %.4f)",
		es.P99Small, ss.P99Small, rank, rel)
}

// TestSweepWorkersClamp pins the clamp rule: observers force serial, bare
// sweeps honor the request, and zero means serial.
func TestSweepWorkersClamp(t *testing.T) {
	if got := sweepWorkers(8, nil); got != 8 {
		t.Fatalf("sweepWorkers(8, nil) = %d, want 8", got)
	}
	if got := sweepWorkers(0, nil); got != 1 {
		t.Fatalf("sweepWorkers(0, nil) = %d, want 1", got)
	}
	if got := sweepWorkers(8, &Obs{}); got != 8 {
		t.Fatalf("sweepWorkers(8, empty Obs) = %d, want 8 (no sinks attached)", got)
	}
	withReg := &Obs{Registry: obs.NewRegistry()}
	if got := sweepWorkers(8, withReg); got != 1 {
		t.Fatalf("sweepWorkers(8, Obs with registry) = %d, want 1", got)
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"tcn/internal/experiments"
	"tcn/internal/obs"
	"tcn/internal/obs/perf"
	"tcn/internal/obs/prof"
)

// refEntry is one pool input with the summaries of its cells.
type refEntry struct {
	Input input     `json:"input"`
	Cells []Summary `json:"cells"`
}

// references is reference.json: the input pool of each family and the
// simulated results every run of those inputs must reproduce.
type references struct {
	PoolSize      int                   `json:"pool_size"`
	WorkTolerance float64               `json:"work_tolerance"`
	Families      map[family][]refEntry `json:"families"`
}

// refSchemes are the cells stored per family input: every scheme a
// workload of the family runs.
var refSchemes = map[family][]experiments.Scheme{
	famFig6:  {experiments.SchemeTCN, experiments.SchemeRED},
	famFig10: {experiments.SchemeTCN},
}

func parseReferences(data []byte) (*references, error) {
	var r references
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	if r.PoolSize != poolSize {
		return nil, fmt.Errorf("reference.json holds %d inputs per family, the benchmark draws from %d; regenerate it with -write-reference", r.PoolSize, poolSize)
	}
	for f := range refSchemes {
		if len(r.Families[f]) != poolSize {
			return nil, fmt.Errorf("reference.json: family %s has %d inputs, want %d", f, len(r.Families[f]), poolSize)
		}
	}
	return &r, nil
}

func (r *references) inputs(f family, idx []int) ([]input, error) {
	out := make([]input, len(idx))
	for i, k := range idx {
		e := r.Families[f][k]
		if e.Input.Index != k || e.Input.Flows != familyFlows(f) {
			return nil, fmt.Errorf("reference.json: %s input %d is %+v; regenerate it with -write-reference", f, k, e.Input)
		}
		out[i] = e.Input
	}
	return out, nil
}

func (r *references) cell(f family, k int, scheme string) (Summary, bool) {
	for _, c := range r.Families[f][k].Cells {
		if c.Scheme == scheme {
			return c, true
		}
	}
	return Summary{}, false
}

// bench runs one benchmark invocation and keeps its correctness tally:
// flows attempted, and flows failed — unfinished, or belonging to a cell
// whose results differ from the reference or whose engine broke event
// conservation.
type bench struct {
	refs      *references
	attempted int
	failed    int
	notes     []string
}

// conserved reports whether every scheduled event was executed or
// canceled. It holds for runs whose engines end with nothing pending,
// which excludes runs with periodic observers (their tickers stay armed).
func conserved(s perf.Snapshot) bool {
	return s.EventsScheduled == s.EventsExecuted+s.EventsCanceled
}

// check tallies one run of input in against the references.
func (b *bench) check(w *workloadDef, in input, got []Summary, conservedOK bool, what string) {
	for _, g := range got {
		b.attempted += in.Flows
		want, ok := b.refs.cell(w.family, in.Index, g.Scheme)
		var why []string
		switch {
		case !ok:
			why = []string{"no reference cell"}
		default:
			why = g.diff(want)
		}
		if !conservedOK {
			why = append(why, "scheduled != executed + canceled")
		}
		if len(why) > 0 {
			b.failed += in.Flows
			b.notes = append(b.notes, fmt.Sprintf("%s %s input %d %s: %v", w.name, what, in.Index, g.Scheme, why))
			continue
		}
		b.failed += g.Unfinished
	}
}

// countingRun runs input in with only the perf campaign attached — it
// neither participates in the simulation nor forces serial runs — and
// asserts event conservation. It is not timed: the campaign meters every
// event. It returns the campaign snapshot.
func (b *bench) countingRun(w *workloadDef, in input) (perf.Snapshot, []Summary) {
	camp := perf.NewCampaign(nil)
	sums := runCells(w, in, &experiments.Obs{Perf: camp})
	snap := camp.SnapshotNow(false)
	b.check(w, in, sums, conserved(snap), "counting run")
	return snap, sums
}

// workloadRun is one timed run of input in: the bare cells, with no
// observer at all, or every sink for the observed workload.
func (b *bench) workloadRun(w *workloadDef, in input) (cost, []Summary) {
	var o *experiments.Obs
	if w.observed {
		o = allSinks(nil)
	}
	var sums []Summary
	runtime.GC()
	c := measure(func() { sums = runCells(w, in, o) })
	b.check(w, in, sums, true, "timed run")
	return c, sums
}

// countsRun returns the engine and pool counts of one run of input in:
// the counting run for the bare workloads; for the observed one, every
// sink plus the campaign, whose periodic observers leave timers pending,
// so conservation is not asserted there.
func (b *bench) countsRun(w *workloadDef, in input) (perf.Snapshot, []Summary) {
	if !w.observed {
		return b.countingRun(w, in)
	}
	o := allSinks(nil)
	o.Perf = perf.NewCampaign(nil)
	sums := runCells(w, in, o)
	b.check(w, in, sums, true, "observed counting run")
	return o.Perf.SnapshotNow(false), sums
}

// setupSamples is how many set-up samples are taken; each times as many
// builds as fit in setupSampleTime (at least three).
const (
	setupSamples    = 15
	setupSampleTime = 20 * time.Millisecond
)

// setupSeconds is the median host time to build the workload's cells
// for input in through their runners (buildCell), sinks included for the
// observed workload. A run builds
// its cells once, before it has made any garbage, so the collector is
// off while a sample's builds run and collects between samples;
// otherwise each build would pay for collecting its predecessors.
func setupSeconds(w *workloadDef, in input) float64 {
	build := func() {
		for _, s := range w.schemes {
			var o *experiments.Obs
			if w.observed {
				o = allSinks(nil)
			}
			buildCell(w.family, s, in, o)
		}
	}
	build() // warm up
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var samples []float64
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		n := 0
		t0 := time.Now()
		for n < 3 || time.Since(t0) < setupSampleTime {
			build()
			n++
		}
		samples = append(samples, time.Since(t0).Seconds()/float64(n))
	}
	runtime.GC()
	return median(samples)
}

// timed measures the end-to-end metrics: set-up, then timed runs (bare
// cells, or every sink for the observed workload) cycling through the run's inputs until every input ran once and
// seconds have passed. Each input's value is the median of its runs; run_s
// is the median over inputs, robust to the host's slow spells, while the
// memory metrics, which hardly vary between runs of one input, are the
// mean over inputs.
func (b *bench) timed(w *workloadDef, ins []input, seconds float64) map[string]float64 {
	got := map[string]float64{"setup_s": setupSeconds(w, ins[0])}
	// Warm-up, and the event-conservation check: a counting run of the
	// first input's bare cells.
	b.countingRun(w, ins[0])
	walls := make([][]float64, len(ins))
	allocs := make([][]float64, len(ins))
	peaks := make([][]float64, len(ins))
	start := time.Now()
	for i := 0; i < len(ins) || time.Since(start).Seconds() < seconds; i++ {
		k := i % len(ins)
		c, _ := b.workloadRun(w, ins[k])
		walls[k] = append(walls[k], c.wallS)
		allocs[k] = append(allocs[k], c.allocMB)
		peaks[k] = append(peaks[k], c.peakMB)
		fmt.Printf("sample %d input %d: %.4f s, %.3f MB allocated, %.3f MB peak heap\n",
			i, ins[k].Index, c.wallS, c.allocMB, c.peakMB)
	}
	var wall []float64
	var alloc, peak float64
	for k := range ins {
		wall = append(wall, median(walls[k]))
		alloc += median(allocs[k]) / float64(len(ins))
		peak += median(peaks[k]) / float64(len(ins))
	}
	got["run_s"] = median(wall)
	got["alloc_mb"] = alloc
	got["peak_heap_mb"] = peak
	return got
}

// untracedRepeats is how many untraced runs set the traced mode's
// baseline run_s.
const untracedRepeats = 3

func schedRung(f family) string {
	if f == famFig10 {
		return "sched.sp_dwrr_ns.q8"
	}
	return "sched.dwrr_ns.q4"
}

func markerRung(s experiments.Scheme) string {
	if s == experiments.SchemeRED {
		return "marker.red_ns"
	}
	return "marker.tcn_ns"
}

// traced measures the per-layer metrics on input in: engine and pool
// counts, the deterministic profile that counts events per layer, the
// wall-traced run, per-sink prices on the Fig 6 TCN cell of fig6In, the
// ladder and the closure.
func (b *bench) traced(w *workloadDef, in, fig6In input, seconds float64) (map[string]float64, error) {
	got := map[string]float64{}
	snap, sums := b.countsRun(w, in)
	var walls []float64
	for i := 0; i < untracedRepeats; i++ {
		c, _ := b.workloadRun(w, in)
		walls = append(walls, c.wallS)
	}
	runS := median(walls)
	got["sim.events"] = float64(snap.EventsExecuted)
	got["sim.events_per_s"] = float64(snap.EventsExecuted) / runS
	got["sim.cancel_frac"] = float64(snap.EventsCanceled) / float64(snap.EventsScheduled)
	got["sim.pending_max"] = float64(snap.PendingHighWater)
	got["sim.cascades"] = float64(snap.WheelCascades)
	got["pkt.pool_hit_frac"] = snap.PoolHitPct / 100
	var drops, timeouts, marks float64
	for _, s := range sums {
		drops += float64(s.Drops)
		timeouts += float64(s.Timeouts)
		marks += float64(s.Marks)
	}
	if w.family == famFig10 {
		// RunLeafSpine reports no marks; count them with a registry.
		o := &experiments.Obs{Registry: obs.NewRegistry()}
		reg := runCells(w, in, o)
		b.check(w, in, reg, true, "registry run")
		marks = float64(reg[0].Marks)
	}
	got["fabric.drops"] = drops
	got["transport.timeouts"] = timeouts
	got["marker.marks"] = marks

	// Deterministic plane, one cell at a time: events per layer.
	var cells []cellModel
	for _, s := range w.schemes {
		one := *w
		one.schemes = []experiments.Scheme{s}
		o := &experiments.Obs{Profiler: prof.New(prof.Config{})}
		if w.observed {
			o = allSinks(nil)
		}
		b.check(w, in, runCells(&one, in, o), true, "profiled run")
		st, err := folded(o.Profiler)
		if err != nil {
			return nil, err
		}
		all, port := eventCounts(st)
		cells = append(cells, cellModel{events: all, portEvents: port, sched: schedRung(w.family), marker: markerRung(s)})
	}

	// Wall plane: self time per layer, and what tracing costs.
	clock := func() int64 { return time.Now().UnixNano() }
	o := &experiments.Obs{Profiler: prof.New(prof.Config{Wall: clock})}
	if w.observed {
		o = allSinks(clock)
	}
	var tsums []Summary
	runtime.GC()
	tc := measure(func() { tsums = runCells(w, in, o) })
	b.check(w, in, tsums, true, "traced run")
	st, err := folded(o.Profiler)
	if err != nil {
		return nil, err
	}
	for k, ns := range selfByKind(st) {
		got["span."+k+"_self_s"] = ns / 1e9
	}
	got["span.overhead_s"] = tc.wallS - runS
	fmt.Printf("traced run %.4f s against %.4f s untraced\n", tc.wallS, runS)

	b.priceSinks(fig6In, seconds, got)

	ns := runLadder(ladder(w.family, int(snap.PendingHighWater)))
	for k, v := range ns {
		got[k] = v
	}
	got["model.explained_frac"] = explainedFrac(cells, ns, runS)
	fmt.Printf("ladder explains %.3f of run_s %.4f s\n", got["model.explained_frac"], runS)
	return got, nil
}

// priceSinks measures each sink alone on the Fig 6 TCN cell of in, each
// sink run paired with a bare run just before it, in rounds until at
// least one round ran and seconds have passed. overhead_frac is the
// median of sink/bare − 1, alloc_mb the median extra MB allocated.
func (b *bench) priceSinks(in input, seconds float64, got map[string]float64) {
	tcn := &workloadDef{name: "fig6-tcn-cell", family: famFig6, schemes: []experiments.Scheme{experiments.SchemeTCN}}
	over := map[string][]float64{}
	extra := map[string][]float64{}
	start := time.Now()
	for round := 0; round == 0 || time.Since(start).Seconds() < seconds; round++ {
		for _, s := range sinkNames {
			var bs, ss []Summary
			runtime.GC()
			bare := measure(func() { bs = runCells(tcn, in, nil) })
			b.check(tcn, in, bs, true, "bare run")
			o := oneSink(s)
			runtime.GC()
			with := measure(func() { ss = runCells(tcn, in, o) })
			b.check(tcn, in, ss, true, s+" run")
			over[s] = append(over[s], with.wallS/bare.wallS-1)
			extra[s] = append(extra[s], with.allocMB-bare.allocMB)
		}
	}
	for _, s := range sinkNames {
		got["obs."+s+".overhead_frac"] = median(over[s])
		got["obs."+s+".alloc_mb"] = median(extra[s])
	}
}

// writeReference regenerates the input pools and runs every input's
// cells to record the results all later runs must reproduce.
func writeReference(path string) error {
	r := references{PoolSize: poolSize, WorkTolerance: workTolerance, Families: map[family][]refEntry{}}
	for _, f := range []family{famFig6, famFig10} {
		w := &workloadDef{name: "reference-" + string(f), family: f, schemes: refSchemes[f]}
		for k := 0; k < poolSize; k++ {
			in, err := findInput(f, k)
			if err != nil {
				return err
			}
			camp := perf.NewCampaign(nil)
			o := &experiments.Obs{Perf: camp}
			if f == famFig10 {
				o.Registry = obs.NewRegistry()
			}
			sums := runCells(w, in, o)
			if !conserved(camp.SnapshotNow(false)) {
				return fmt.Errorf("%s input %d breaks event conservation", f, k)
			}
			r.Families[f] = append(r.Families[f], refEntry{Input: in, Cells: sums})
			fmt.Fprintf(os.Stderr, "%s input %d: plan seed %d, %+v\n", f, k, in.PlanSeed, sums)
		}
	}
	out, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

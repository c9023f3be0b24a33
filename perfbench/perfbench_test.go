package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"tcn/internal/experiments"
	"tcn/internal/obs/perf"
)

func TestSummaryDiff(t *testing.T) {
	ref := Summary{Scheme: "TCN", Flows: 400, AvgSmallNs: 10, P99SmallNs: 20, AvgLargeNs: 30, P99LargeNs: 40, Timeouts: 1, Drops: 2, Marks: 3}
	if d := ref.diff(ref); len(d) != 0 {
		t.Fatalf("equal summaries differ: %v", d)
	}
	got := ref
	got.P99LargeNs++
	got.Unfinished = 1
	if d := got.diff(ref); len(d) != 2 || !strings.HasPrefix(d[0], "p99_large_ns") || !strings.HasPrefix(d[1], "unfinished") {
		t.Fatalf("diff = %v, want p99_large_ns and unfinished", d)
	}
	// A run that cannot see marks is not compared on them; one that can is.
	blind := ref
	blind.Marks = -1
	if d := blind.diff(ref); len(d) != 0 {
		t.Fatalf("marks-blind run differs: %v", d)
	}
	wrong := ref
	wrong.Marks = 4
	if d := wrong.diff(ref); len(d) != 1 {
		t.Fatalf("diff = %v, want marks", d)
	}
}

func TestCheckTalliesFlows(t *testing.T) {
	in := input{Index: 0, PlanSeed: 7, Flows: 100}
	ref := Summary{Scheme: "TCN", Flows: 98, Unfinished: 2}
	b := &bench{refs: &references{Families: map[family][]refEntry{famFig6: {{Input: in, Cells: []Summary{ref}}}}}}
	w := &workloadDef{name: "w", family: famFig6}
	b.check(w, in, []Summary{ref}, true, "run")
	if b.attempted != 100 || b.failed != 2 || len(b.notes) != 0 {
		t.Fatalf("matching run: attempted %d failed %d notes %v", b.attempted, b.failed, b.notes)
	}
	// A mismatch or a conservation break fails every flow of the cell.
	bad := ref
	bad.Drops = 1
	b.check(w, in, []Summary{bad}, true, "run")
	b.check(w, in, []Summary{ref}, false, "run")
	if b.attempted != 300 || b.failed != 202 || len(b.notes) != 2 {
		t.Fatalf("failing runs: attempted %d failed %d notes %v", b.attempted, b.failed, b.notes)
	}
}

func TestMetricDefsValid(t *testing.T) {
	if err := checkDefs(append(append([]metricDef{}, endToEnd...), perLayer...)); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []metricDef{
		{"_x", "s", "lower"},
		{"x y", "s", "lower"},
		{strings.Repeat("a", 65), "s", "lower"},
		{"x", "", "lower"},
		{"x", "s", "better"},
	} {
		if checkDefs([]metricDef{bad}) == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
	if checkDefs([]metricDef{{"x", "s", "lower"}, {"x", "s", "lower"}}) == nil {
		t.Error("duplicate name accepted")
	}
}

// TestBenchmarkJSONMatchesDefs keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(defs))
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark prints %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, spec.Workloads[i].Name, w.name)
		}
	}
}

func TestReportNeedsEveryMetric(t *testing.T) {
	defs := []metricDef{{"a", "s", "lower"}, {"b", "ns", "lower"}}
	if _, err := report(defs, map[string]float64{"a": 1}); err == nil {
		t.Fatal("missing metric b not reported")
	}
	v, err := report(defs, map[string]float64{"a": 1, "b": 2, "c": 3})
	if err != nil || len(v) != 2 || v["b"] != (value{2, "ns"}) {
		t.Fatalf("report = %v, %v", v, err)
	}
}

const sampleFolded = `engine 100
engine;port:fig6.TCN.load0.9.sw.p8 40
engine;port:fig6.TCN.load0.9.sw.p8;marker:TCN 5
engine;port:fig6.TCN.load0.9.sw.p8;sched:DWRR 30
engine;qdisc:nic:enq;sched:FIFO 2
engine;transport:ack 7
engine;transport:data 8
engine;mystery:x 1
`

func TestFoldedSelfByKind(t *testing.T) {
	st, err := parseFolded(sampleFolded)
	if err != nil {
		t.Fatal(err)
	}
	got := selfByKind(st)
	want := map[string]float64{"engine": 101, "port": 40, "sched": 32, "marker": 5, "transport": 15}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	var sum float64
	for _, v := range got {
		sum += v
	}
	if sum != 193 {
		t.Errorf("kinds sum to %v, want every line's value (193)", sum)
	}
	all, port := eventCounts(st)
	if all != 193 || port != 77 {
		t.Errorf("events all %v port %v, want 193 and 77", all, port)
	}
	for _, bad := range []string{"engine", "engine x", "engine;port:p 1.5.5"} {
		if _, err := parseFolded(bad); err == nil {
			t.Errorf("parseFolded(%q) accepted", bad)
		}
	}
}

func TestExplainedFrac(t *testing.T) {
	ns := map[string]float64{"sim.schedule_fire_ns": 50, "sched.dwrr_ns.q4": 30, "marker.tcn_ns": 10, "marker.red_ns": 20}
	cells := []cellModel{
		{events: 1e6, portEvents: 4e5, sched: "sched.dwrr_ns.q4", marker: "marker.tcn_ns"},
		{events: 2e6, portEvents: 1e6, sched: "sched.dwrr_ns.q4", marker: "marker.red_ns"},
	}
	// 1e6×50 + 2e5×(30+10) + 2e6×50 + 5e5×(30+20) = 0.183e9 ns.
	if got := explainedFrac(cells, ns, 0.366); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("explainedFrac = %v, want 0.5", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCheckConcurrency(t *testing.T) {
	if err := checkConcurrency(1, 2); err != nil {
		t.Fatal(err)
	}
	if checkConcurrency(3, 2) == nil || checkConcurrency(0, 2) == nil {
		t.Fatal("bad worker counts accepted")
	}
}

func TestPickInputs(t *testing.T) {
	a, b := pickInputs(5, 6), pickInputs(5, 6)
	seen := map[int]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 5 picks %v then %v", a, b)
		}
		if a[i] < 0 || a[i] >= poolSize || seen[a[i]] {
			t.Fatalf("picks %v are not distinct pool indices", a)
		}
		seen[a[i]] = true
	}
}

// TestReferenceInputsReproduce checks that the stored input pool is what
// the input generator makes, so references and inputs cannot drift.
func TestReferenceInputsReproduce(t *testing.T) {
	refs, err := parseReferences(referenceJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []family{famFig6, famFig10} {
		for _, k := range []int{0, poolSize - 1} {
			in, err := findInput(f, k)
			if err != nil {
				t.Fatal(err)
			}
			if got := refs.Families[f][k].Input; got != in {
				t.Errorf("%s input %d: stored %+v, generated %+v", f, k, got, in)
			}
		}
	}
}

// TestSetupDeadlineBeforeArrivals checks that a set-up build of every
// pool input's cells executes no event, so setup_s times the runners'
// set-up and none of their run.
func TestSetupDeadlineBeforeArrivals(t *testing.T) {
	refs, err := parseReferences(referenceJSON)
	if err != nil {
		t.Fatal(err)
	}
	for f, schemes := range refSchemes {
		for _, e := range refs.Families[f] {
			for _, s := range schemes {
				camp := perf.NewCampaign(nil)
				buildCell(f, s, e.Input, &experiments.Obs{Perf: camp})
				if snap := camp.SnapshotNow(false); snap.EventsExecuted != 0 || snap.EventsScheduled == 0 {
					t.Errorf("%s input %d %s: set-up executed %d of %d scheduled events, want 0 of some",
						f, e.Input.Index, s, snap.EventsExecuted, snap.EventsScheduled)
				}
			}
		}
	}
}

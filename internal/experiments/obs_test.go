package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"tcn/internal/digest"
	"tcn/internal/obs"
	"tcn/internal/obs/flight"
	"tcn/internal/obs/perf"
	"tcn/internal/obs/prof"
	"tcn/internal/sim"
	"tcn/internal/trace"
)

func obsFig1Config() Fig1Config {
	cfg := DefaultFig1()
	cfg.FlowCounts = []int{2}
	cfg.Duration = 200 * sim.Millisecond
	return cfg
}

// sumSuffix totals every counter whose name ends in suffix.
func sumSuffix(snap obs.Snapshot, suffix string) int64 {
	var n int64
	for _, c := range snap.Counters {
		if strings.HasSuffix(c.Name, suffix) {
			n += c.Value
		}
	}
	return n
}

// TestObsReconcilesWithTrace pins the contract between the two
// observability paths: for the same run, the registry's per-queue counters
// and the tracer's event counts must agree exactly — tx counts every
// transmission (the tracer splits CE ones out as Mark events), mark counts
// CE-at-transmit, drop counts admission rejections.
func TestObsReconcilesWithTrace(t *testing.T) {
	o := &Obs{Registry: obs.NewRegistry(), Tracer: trace.New(1024)}
	cfg := obsFig1Config()
	cfg.Obs = o
	RunFig1(cfg)

	snap := o.Registry.Snapshot()
	tx := sumSuffix(snap, ".tx_packets")
	mark := sumSuffix(snap, ".mark_packets")
	drop := sumSuffix(snap, ".drop_packets")
	if tx == 0 {
		t.Fatal("no transmissions recorded")
	}
	if mark == 0 {
		t.Fatal("PortRED at 2s never marked — instrumentation lost the marks")
	}
	if got := o.Tracer.Count(trace.Transmit) + o.Tracer.Count(trace.Mark); got != tx {
		t.Errorf("tracer tx+mark = %d, registry tx_packets = %d", got, tx)
	}
	if got := o.Tracer.Count(trace.Mark); got != mark {
		t.Errorf("tracer marks = %d, registry mark_packets = %d", got, mark)
	}
	if got := o.Tracer.Count(trace.Drop); got != drop {
		t.Errorf("tracer drops = %d, registry drop_packets = %d", got, drop)
	}

	// Enqueue conservation: everything admitted is either still queued
	// (nothing, after the run drains or not) or transmitted; enq >= tx.
	enq := sumSuffix(snap, ".enq_packets")
	if enq < tx {
		t.Errorf("enq_packets %d < tx_packets %d", enq, tx)
	}

	// The marker's own counter agrees with the port-level mark counters.
	if mm := sumSuffix(snap, ".marker.marks"); mm != mark {
		t.Errorf("marker.marks = %d, port mark_packets = %d", mm, mark)
	}
}

// TestObsStatsJSONDeterministic pins the acceptance criterion that
// identical seeds produce byte-identical -stats JSON.
func TestObsStatsJSONDeterministic(t *testing.T) {
	render := func() []byte {
		o := &Obs{Registry: obs.NewRegistry()}
		cfg := obsFig1Config()
		cfg.Obs = o
		RunFig1(cfg)
		var buf bytes.Buffer
		if err := o.Registry.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("identical seeds produced different stats JSON")
	}
	if !bytes.Contains(a, []byte("sojourn_ns")) {
		t.Error("snapshot missing sojourn histograms")
	}
}

// TestObsNilSafe: a nil *Obs and an Obs with nil fields attach nothing and
// never panic, so runners can call Attach unconditionally.
func TestObsNilSafe(t *testing.T) {
	cfg := obsFig1Config()
	cfg.Obs = nil
	RunFig1(cfg)     // nil receiver path
	cfg.Obs = &Obs{} // both sinks nil
	RunFig1(cfg)
}

// TestObsInstrumentedResultUnchanged: attaching observers must not change
// the simulation — same seed, same goodput split, observed or not.
func TestObsInstrumentedResultUnchanged(t *testing.T) {
	bare := RunFig1(obsFig1Config())
	cfg := obsFig1Config()
	cfg.Obs = &Obs{Registry: obs.NewRegistry(), Tracer: trace.New(64)}
	observed := RunFig1(cfg)
	if bare.Points[0] != observed.Points[0] {
		t.Fatalf("instrumentation perturbed the run:\nbare     %+v\nobserved %+v",
			bare.Points[0], observed.Points[0])
	}
}

// TestObserversNeverExtendARun accounts for every event an observed FCT
// cell executes beyond its bare twin: one per fingerprint epoch and one
// per flight tick, and nothing for an idle tail, because both tickers stop
// once the model has drained and each has sampled the final state. The
// results must not move.
func TestObserversNeverExtendARun(t *testing.T) {
	ls := ciLeafSpine()
	ls.Flows = 60
	for _, tc := range []struct {
		name string
		run  func(o *Obs) any
	}{
		{"fig6-cell", func(o *Obs) any {
			return RunTestbedFCT(TestbedFCTConfig{
				Scheme: SchemeTCN, Sched: SchedDWRR, Load: 0.6, Flows: 40, Seed: 1, Obs: o,
			})
		}},
		{"leafspine-cell", func(o *Obs) any {
			c := ls
			c.Obs = o
			return RunLeafSpine(c)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bare := &Obs{Perf: perf.NewCampaign(nil)}
			bareRes := tc.run(bare)
			fp := digest.New(digest.Config{})
			fl := flight.New(flight.Config{})
			observed := &Obs{Perf: perf.NewCampaign(nil), Fingerprint: fp, Flight: fl}
			obsRes := tc.run(observed)
			if !reflect.DeepEqual(bareRes, obsRes) {
				t.Fatalf("observers changed the result:\nbare     %+v\nobserved %+v", bareRes, obsRes)
			}

			var epochs int64
			recs := fp.Records()
			for _, r := range recs {
				if r.Component == digest.ComponentEngine {
					epochs++
				}
			}
			series := fl.AllSeries()
			if len(series) == 0 {
				t.Fatal("flight recorder registered no probes")
			}
			ticks := series[0].Offered()
			for _, s := range series {
				if s.Offered() != ticks {
					t.Fatalf("probe %s sampled %d times, %s %d; want one shared ticker",
						s.Name(), s.Offered(), series[0].Name(), ticks)
				}
			}
			// Both tickers sample the state after the switches' last
			// transmission, and neither outlives the model: the last
			// epoch and the last probe sample fall within two epochs of
			// it, not out at the deadline.
			var lastTx sim.Time
			for _, sp := range fl.Spans().Spans() {
				lastTx = max(lastTx, sp.LastDeq)
			}
			epoch := sim.Time(fp.EpochNs())
			lastEpoch := sim.Time(recs[len(recs)-1].At)
			lastProbe := series[0].Last().At
			for _, last := range []sim.Time{lastEpoch, lastProbe} {
				if last < lastTx || last > lastTx+2*epoch {
					t.Fatalf("last epoch at %v, last probe at %v; last transmission at %v", lastEpoch, lastProbe, lastTx)
				}
			}
			b := bare.Perf.SnapshotNow(false).EventsExecuted
			o := observed.Perf.SnapshotNow(false).EventsExecuted
			if want := b + uint64(epochs) + uint64(ticks); o != want {
				t.Fatalf("observed run executed %d events, want bare %d + epochs %d + flight ticks %d = %d",
					o, b, epochs, ticks, want)
			}
		})
	}
}

// TestProfilerTotalsCoverEveryCell pins that the fig2, fig3 and fig5
// runners close every cell through ReportCell: with a profiler attached,
// the attributed sim-time equals cells × Duration, which holds only once
// FinishEngine has folded each cell's idle tail into its books.
func TestProfilerTotalsCoverEveryCell(t *testing.T) {
	fig5 := DefaultFig5()
	fig5.Stage = 20 * sim.Millisecond
	fig5.Duration = 80 * sim.Millisecond
	cases := []struct {
		name  string
		cells int64
		dur   sim.Time
		run   func(*Obs)
	}{
		{"fig2", 3, DefaultFig2().Duration, func(o *Obs) {
			cfg := DefaultFig2()
			cfg.Obs = o
			RunFig2(cfg)
		}},
		{"fig3", 3, DefaultFig3().Duration, func(o *Obs) {
			cfg := DefaultFig3()
			cfg.Obs = o
			RunFig3(cfg)
		}},
		{"fig5a", 1, fig5.Duration, func(o *Obs) {
			cfg := fig5
			cfg.Obs = o
			RunFig5a(cfg)
		}},
		{"fig5b", 1, fig5.Duration, func(o *Obs) {
			cfg := fig5
			cfg.Obs = o
			RunFig5b(cfg)
		}},
	}
	for _, c := range cases {
		p := prof.New(prof.Config{})
		c.run(&Obs{Profiler: p})
		if _, simNs := p.Totals(); simNs != c.cells*int64(c.dur) {
			t.Errorf("%s: profiler attributes %d ns of sim time, want %d cells × %v = %d",
				c.name, simNs, c.cells, c.dur, c.cells*int64(c.dur))
		}
	}
}

// TestProfiledStacksDoNotRepeatFrames pins that a port enters its
// profiler scope once per entry: Send on an idle link transmits inline,
// and must not nest "port:X" inside itself, which would show every busy
// port twice in a flame graph.
func TestProfiledStacksDoNotRepeatFrames(t *testing.T) {
	p := prof.New(prof.Config{})
	cfg := DefaultFig3()
	cfg.Obs = &Obs{Profiler: p}
	RunFig3(cfg) //tcnlint:walltaint the profiler is deterministic-plane only (no Wall clock) and observe-only
	var buf bytes.Buffer
	if err := p.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	stacks := 0
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		stack, _, _ := strings.Cut(line, " ")
		frames := strings.Split(stack, ";")
		for i := 1; i < len(frames); i++ {
			if frames[i] == frames[i-1] {
				t.Errorf("stack repeats frame %q: %s", frames[i], line)
			}
		}
		if strings.Contains(stack, "port:") {
			stacks++
		}
	}
	if stacks == 0 {
		t.Fatal("no port scope in the profile: the check was not exercised")
	}
}

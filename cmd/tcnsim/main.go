// Command tcnsim regenerates the paper's tables and figures.
//
// Usage:
//
//	tcnsim -exp fig1 [-flows N] [-loads 0.5,0.9] [-seed S] [-full]
//
// Experiments: fig1 fig2 fig3 fig4 fig5a fig5b fig6 fig7 fig8 fig9
// fig10 fig11 fig12 fig13 all-testbed all-sim
//
// By default the runners use CI-sized flow counts and (for leaf-spine
// experiments) a 4×4×4 fabric; -full switches to the paper's scale
// (5000/50000 flows, 12×12×12 fabric) and takes correspondingly longer.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"tcn/internal/digest"
	"tcn/internal/experiments"
	"tcn/internal/metrics"
	"tcn/internal/obs"
	"tcn/internal/obs/flight"
	"tcn/internal/obs/perf"
	"tcn/internal/obs/prof"
	"tcn/internal/parallel"
	"tcn/internal/sim"
	"tcn/internal/trace"
)

func main() {
	var (
		exp   = flag.String("exp", "", "experiment id (fig1..fig13, fig4, all-testbed, all-sim)")
		flows = flag.Int("flows", 0, "flows per load point (0 = experiment default)")
		loads = flag.String("loads", "", "comma-separated loads, e.g. 0.5,0.9 (default per experiment)")
		seed  = flag.Int64("seed", 1, "random seed")
		full  = flag.Bool("full", false, "paper-scale runs (slow)")
		list  = flag.Bool("list", false, "list experiments")
		seeds = flag.Int("seeds", 1, "repeat FCT sweeps over this many seeds and aggregate")
		csv   = flag.String("csv", "", "also write plot-friendly CSV files into this directory")

		workers = flag.Int("workers", parallel.DefaultWorkers(),
			"sweep points evaluated concurrently (results are identical at any count; forced to 1 when -stats/-trace/-explain/-ledger/-perfetto/-serve/-timeseries/-flow-spans/-fingerprint attach observers)")
		progress = flag.Bool("progress", false,
			"print a periodic progress line to stderr: cells done/total, live events/sec, sim time, ETA (works at any -workers)")
		exactFCT = flag.Bool("exact-fct", false,
			"retain every per-flow FCT record and compute exact P99 instead of the default bounded-memory streaming t-digest")

		statsFile = flag.String("stats", "", "write a JSON stats snapshot of every instrumented port to this file ('-' = stdout)")
		statsText = flag.Bool("stats-text", false, "render -stats in tc(8)-style text instead of JSON")
		traceFile = flag.String("trace", "", "write a JSONL packet-event trace to this file ('-' = stdout)")
		traceCap  = flag.Int("trace-events", 1<<16, "packet events retained in the trace ring")

		explain      = flag.Bool("explain", false, "after the run, print a verdict-breakdown report: every mark/drop by (port, queue, reason)")
		ledgerFile   = flag.String("ledger", "", "write the decision ledger (every mark/drop verdict with its inputs) as JSONL to this file ('-' = stdout)")
		ledgerCap    = flag.Int("ledger-events", 1<<16, "verdicts retained in the ledger ring (exact counters never evict)")
		perfettoFile = flag.String("perfetto", "", "write per-packet pipeline-stage spans as Chrome trace-event JSON (Perfetto-loadable) to this file ('-' = stdout)")
		perfettoCap  = flag.Int("perfetto-events", 1<<16, "pipeline events retained in the Perfetto ring")
		serveAddr    = flag.String("serve", "", "serve /metrics, /timeseries.csv, /flows.csv, /ledger.jsonl, /trace.perfetto.json, /perf.json, /campaign.json, /profile.pb.gz, /profile.folded, and pprof on this address while running (e.g. :9090)")
		tsFile       = flag.String("timeseries", "", "write the flight-recorder time series to this file, CSV by default, JSON for a .json suffix ('-' = stdout)")
		spansFile    = flag.String("flow-spans", "", "write per-flow lifecycle spans (FCT, bytes, marks, drops, max sojourn) as CSV to this file ('-' = stdout)")
		samplePeriod = flag.Duration("sample-period", 100*time.Microsecond, "flight-recorder probe polling period (simulated time)")

		fpFile  = flag.String("fingerprint", "", "write the run-fingerprint digest timeline (per-component chained digests per epoch) as JSONL to this file ('-' = stdout); diff two runs with tcndiff")
		fpEpoch = flag.Duration("fingerprint-epoch", time.Millisecond, "fingerprint snapshot period (simulated time); both runs of a tcndiff pair must use the same period")
		fpFine  = flag.Int64("fingerprint-fine", -1, "record per-event digests bracketed around this epoch index (-1 = off); set to the epoch tcndiff reported to localize the first divergent event")

		profFile   = flag.String("profile", "", "write the sim-structured cost profile (gzip pprof protobuf; read with 'go tool pprof') to this file; attaches the deterministic event-cost profiler, which forces -workers 1 but leaves fingerprints identical to a bare run")
		profFolded = flag.String("profile-folded", "", "write the cost profile as folded stacks ('a;b;c value' lines, flamegraph.pl-compatible) to this file ('-' = stdout); diff two with tcndiff -profile-a/-profile-b")
		profWall   = flag.Bool("profile-wall", false, "also record wall-clock self-time per component scope (telemetry plane: observe-only, excluded from digests, nondeterministic across runs)")
	)
	flag.Parse()

	if *list || *exp == "" {
		usage()
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	csvDir = *csv
	// The flight-recorder/registry/ledger sinks are shared mutable state
	// and force a sweep serial, so -serve only attaches them at -workers 1.
	// At higher worker counts -serve still exposes the atomics-backed
	// /perf.json and /campaign.json (the campaign dashboard), which work
	// mid-run at any fan-out; the network-observability endpoints answer
	// 503 in that mode.
	serveFull := *serveAddr != "" && *workers <= 1
	wantFlight := serveFull || *tsFile != "" || *spansFile != ""
	wantLedger := *explain || *ledgerFile != "" || serveFull
	wantPipeline := *perfettoFile != "" || serveFull
	if *statsFile != "" || *traceFile != "" || wantFlight || wantLedger || wantPipeline {
		obsSink = &experiments.Obs{}
		if *statsFile != "" || serveFull {
			// -serve needs a registry so /metrics has instruments to render.
			obsSink.Registry = obs.NewRegistry()
		}
		if *traceFile != "" || *explain {
			// -explain keeps a tracer so it can reconcile the ledger's
			// attribution against the transmission-side mark/drop counts.
			obsSink.Tracer = trace.New(ringSize("trace-events", *traceCap))
		}
		if wantLedger {
			obsSink.Ledger = trace.NewLedger(ringSize("ledger-events", *ledgerCap))
			if obsSink.Registry != nil {
				obsSink.Ledger.Instrument(obsSink.Registry)
			}
		}
		if wantPipeline {
			obsSink.Pipeline = trace.NewPipeline(ringSize("perfetto-events", *perfettoCap))
		}
		if wantFlight {
			if *samplePeriod <= 0 {
				fmt.Fprintf(os.Stderr, "-sample-period %v must be positive\n", *samplePeriod)
				os.Exit(2)
			}
			obsSink.Flight = flight.New(flight.Config{
				Period:   sim.Time(samplePeriod.Nanoseconds()),
				Registry: obsSink.Registry,
				Ledger:   obsSink.Ledger,
				Pipeline: obsSink.Pipeline,
			})
		}
	}
	if *fpFile != "" {
		if *fpEpoch <= 0 {
			fmt.Fprintf(os.Stderr, "-fingerprint-epoch %v must be positive\n", *fpEpoch)
			os.Exit(2)
		}
		if obsSink == nil {
			obsSink = &experiments.Obs{}
		}
		// The digest seed is NOT the run seed: two runs with different
		// -seed values must still be comparable, so tcndiff can localize
		// where a seed perturbation first changes the simulation.
		obsSink.Fingerprint = digest.New(digest.Config{
			EpochNs:     fpEpoch.Nanoseconds(),
			Fine:        *fpFine >= 0,
			FineAtEpoch: *fpFine,
		})
	}
	if *profFile != "" || *profFolded != "" || *profWall {
		if obsSink == nil {
			obsSink = &experiments.Obs{}
		}
		// The wall clock is injected here for the same reason as the perf
		// campaign's below: internal packages may not call time.Now
		// (simclock lint). Without -profile-wall the profiler runs its
		// deterministic plane only.
		var pcfg prof.Config
		if *profWall {
			pcfg.Wall = func() int64 { return time.Now().UnixNano() }
		}
		obsSink.Profiler = prof.New(pcfg)
	}
	if *progress || *serveAddr != "" {
		// The self-telemetry campaign is atomics-only and never forces a
		// sweep serial, so -progress composes with -workers N. The wall
		// clock is injected here: internal packages may not call time.Now
		// (simclock lint).
		if obsSink == nil {
			obsSink = &experiments.Obs{}
		}
		obsSink.Perf = perf.NewCampaign(func() int64 { return time.Now().UnixNano() })
	}
	var profExp *profileExport
	if obsSink != nil && obsSink.Profiler != nil {
		profExp = &profileExport{}
	}
	if *serveAddr != "" {
		// The live endpoints read atomics-only snapshots; the flight
		// recorder's reservoir rand is touched by the sim goroutine alone.
		srv, err := startServer(*serveAddr, obsSink.Flight, obsSink.Perf, profExp) //tcnlint:goshare server reads atomic snapshots; the rand stays with the sim goroutine
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer waitForShutdown(srv)
	}
	cfg := runConfig{flows: *flows, loads: parseLoads(*loads), seed: *seed, full: *full, seeds: *seeds, workers: *workers, exactFCT: *exactFCT}
	run, ok := runners[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		usage()
		os.Exit(2)
	}
	if *progress {
		stop := startProgress(obsSink.Perf)
		run(cfg)
		stop()
	} else {
		run(cfg)
	}
	if obsSink != nil && obsSink.Flight != nil {
		obsSink.Flight.Seal()
	}
	if err := writeObsOutputs(*statsFile, *statsText, *traceFile); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := writeFlightOutputs(*tsFile, *spansFile); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := writeVerdictOutputs(*explain, *ledgerFile, *perfettoFile); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *fpFile != "" {
		if err := writeTo(*fpFile, obsSink.Fingerprint.WriteJSONL); err != nil {
			fmt.Fprintf(os.Stderr, "writing fingerprint: %v\n", err)
			os.Exit(1)
		}
	}
	if obsSink != nil && obsSink.Profiler != nil {
		if err := writeProfileOutputs(obsSink.Profiler, *profFile, *profFolded, profExp); err != nil {
			fmt.Fprintf(os.Stderr, "writing profile: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeProfileOutputs renders the cost profile once the run is complete:
// the -profile / -profile-folded files, plus an in-memory publication for
// the /profile.pb.gz and /profile.folded endpoints when -serve is active
// (the server keeps answering after the run, so a curl that raced the
// simulation gets the rendered bytes instead of a mid-run 503 forever).
func writeProfileOutputs(p *prof.Profiler, pbPath, foldedPath string, exp *profileExport) error {
	if pbPath != "" {
		if err := writeTo(pbPath, p.WritePprof); err != nil {
			return fmt.Errorf("pprof export: %w", err)
		}
	}
	if foldedPath != "" {
		if err := writeTo(foldedPath, p.WriteFolded); err != nil {
			return fmt.Errorf("folded export: %w", err)
		}
	}
	if exp != nil {
		var pb, folded bytes.Buffer
		if err := p.WritePprof(&pb); err != nil {
			return fmt.Errorf("pprof render: %w", err)
		}
		if err := p.WriteFolded(&folded); err != nil {
			return fmt.Errorf("folded render: %w", err)
		}
		exp.publish(pb.Bytes(), folded.Bytes())
	}
	return nil
}

// obsSink, when -stats or -trace is given, is handed to every runner that
// knows how to attach it; runners without instrumentation leave it empty.
var obsSink *experiments.Obs

// writeObsOutputs flushes the collected stats and trace after the run.
func writeObsOutputs(statsPath string, statsText bool, tracePath string) error {
	if obsSink == nil {
		return nil
	}
	if statsPath != "" {
		snap := obsSink.Registry.Snapshot()
		write := snap.WriteJSON
		if statsText {
			write = snap.WriteText
		}
		if err := writeTo(statsPath, write); err != nil {
			return fmt.Errorf("writing stats: %w", err)
		}
	}
	if tracePath != "" {
		if err := writeTo(tracePath, obsSink.Tracer.WriteJSONL); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	return nil
}

// writeFlightOutputs flushes the flight recorder's series and flow spans
// after the run (the recorder is sealed by then).
func writeFlightOutputs(tsPath, spansPath string) error {
	if obsSink == nil || obsSink.Flight == nil {
		return nil
	}
	if tsPath != "" {
		write := obsSink.Flight.WriteTimeseriesCSV
		if strings.HasSuffix(tsPath, ".json") {
			write = obsSink.Flight.WriteTimeseriesJSON
		}
		if err := writeTo(tsPath, write); err != nil {
			return fmt.Errorf("writing timeseries: %w", err)
		}
	}
	if spansPath != "" {
		if err := writeTo(spansPath, obsSink.Flight.Spans().WriteCSV); err != nil {
			return fmt.Errorf("writing flow spans: %w", err)
		}
	}
	return nil
}

// writeVerdictOutputs prints the -explain attribution report and flushes
// the -ledger / -perfetto exports after the run.
func writeVerdictOutputs(explain bool, ledgerPath, perfettoPath string) error {
	if obsSink == nil {
		return nil
	}
	if explain && obsSink.Ledger != nil {
		fmt.Println("\n== explain: mark/drop attribution ==")
		if err := obsSink.Ledger.WriteReport(os.Stdout); err != nil {
			return fmt.Errorf("writing explain report: %w", err)
		}
		if t := obsSink.Tracer; t != nil {
			lm, ld := obsSink.Ledger.Marked(), obsSink.Ledger.Dropped()
			tm, td := t.Count(trace.Mark), t.Count(trace.Drop)
			verdict := "exact"
			if lm != tm || ld != td {
				// Enqueue-marked packets still queued at the deadline have a
				// verdict but no transmission; a multi-hop fabric transmits a
				// CE packet once per hop, so the transmission-side counter
				// can also exceed the decision count.
				verdict = "residual: marks in flight at run end, or CE re-counted per hop"
			}
			fmt.Printf("reconcile: ledger marked=%d dropped=%d | trace mark=%d drop=%d (%s)\n",
				lm, ld, tm, td, verdict)
		}
	}
	if ledgerPath != "" && obsSink.Ledger != nil {
		if err := writeTo(ledgerPath, obsSink.Ledger.WriteJSONL); err != nil {
			return fmt.Errorf("writing ledger: %w", err)
		}
	}
	if perfettoPath != "" && obsSink.Pipeline != nil {
		if err := writeTo(perfettoPath, obsSink.Pipeline.WriteJSON); err != nil {
			return fmt.Errorf("writing perfetto trace: %w", err)
		}
	}
	return nil
}

func writeTo(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type runConfig struct {
	flows    int
	loads    []float64
	seed     int64
	seeds    int
	full     bool
	workers  int
	exactFCT bool
}

func (c runConfig) testbedSweep() experiments.SweepConfig {
	sw := experiments.DefaultSweep()
	sw.Seed = c.seed
	sw.Obs = obsSink
	sw.Workers = c.workers
	sw.ExactFCT = c.exactFCT
	if c.full {
		sw.Flows = 5000
	} else {
		sw.Flows = 1500
		sw.Loads = []float64{0.5, 0.7, 0.9}
	}
	if c.flows > 0 {
		sw.Flows = c.flows
	}
	if c.loads != nil {
		sw.Loads = c.loads
	}
	return sw
}

func (c runConfig) leafSweep() experiments.LeafSpineSweepConfig {
	ls := experiments.LeafSpineSweepConfig{Seed: c.seed, Obs: obsSink, Workers: c.workers, ExactFCT: c.exactFCT}
	if c.full {
		ls.Flows = 50_000
		ls.Loads = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
		ls.Leaves, ls.Spines, ls.HostsPerLeaf = 12, 12, 12
	} else {
		ls.Flows = 1200
		ls.Loads = []float64{0.5, 0.9}
		ls.Leaves, ls.Spines, ls.HostsPerLeaf = 4, 4, 4
	}
	if c.flows > 0 {
		ls.Flows = c.flows
	}
	if c.loads != nil {
		ls.Loads = c.loads
	}
	return ls
}

var runners map[string]func(runConfig)

func init() {
	runners = map[string]func(runConfig){
		"fig1":  runFig1,
		"fig2":  runFig2,
		"fig3":  runFig3,
		"fig4":  runFig4,
		"fig5a": runFig5a,
		"fig5b": runFig5b,
		"fig6":  func(c runConfig) { runSweepSeeds(c, experiments.RunFig6) },
		"fig7":  func(c runConfig) { runSweepSeeds(c, experiments.RunFig7) },
		"fig8":  func(c runConfig) { runSweepSeeds(c, experiments.RunFig8) },
		"fig9":  func(c runConfig) { runSweepSeeds(c, experiments.RunFig9) },
		"fig10": func(c runConfig) { lsw := experiments.RunFig10(c.leafSweep()); printLeafSweep(lsw); csvLeafSweep(lsw) },
		"fig11": func(c runConfig) { lsw := experiments.RunFig11(c.leafSweep()); printLeafSweep(lsw); csvLeafSweep(lsw) },
		"fig12": func(c runConfig) { lsw := experiments.RunFig12(c.leafSweep()); printLeafSweep(lsw); csvLeafSweep(lsw) },
		"fig13": func(c runConfig) { lsw := experiments.RunFig13(c.leafSweep()); printLeafSweep(lsw); csvLeafSweep(lsw) },
		"dcqcn": runDCQCN,
		"all-testbed": func(c runConfig) {
			for _, f := range []string{"fig1", "fig2", "fig3", "fig5a", "fig5b", "fig6", "fig7", "fig8", "fig9"} {
				runners[f](c)
			}
		},
		"all-sim": func(c runConfig) {
			for _, f := range []string{"fig10", "fig11", "fig12", "fig13"} {
				runners[f](c)
			}
		},
	}
}

// ringSize returns the -name ring capacity n or exits 2 if it is not
// positive. It runs where the ring's sink is built, so unused sizes pass.
func ringSize(name string, n int) int {
	if n <= 0 {
		fmt.Fprintf(os.Stderr, "-%s %d must be positive\n", name, n)
		os.Exit(2)
	}
	return n
}

func usage() {
	fmt.Println(`tcnsim — regenerate the TCN paper's figures on the built-in simulator

  fig1    per-port RED violates DWRR policy (goodput vs service-2 flows)
  fig2    Algorithm-1 departure-rate estimation vs MQ-ECN (queue-1 capacity)
  fig3    buffer occupancy: enqueue RED vs dequeue RED vs TCN
  fig4    the four workload CDFs
  fig5a   SP/WFQ goodput split under TCN (static flows)
  fig5b   RTT through the busy WFQ queue: TCN vs RED vs ideal vs CoDel
  fig6/7  isolation FCT sweep, DWRR / WFQ (testbed)
  fig8/9  prioritization (PIAS) FCT sweep, SP/DWRR / SP/WFQ (testbed)
  fig10+  leaf-spine FCT sweeps (DCTCP, WFQ, ECN*, 32 queues)
  dcqcn   DCQCN fairness: cut-off vs probabilistic TCN marking (§4.3)

Flags: -flows N  -loads 0.5,0.9  -seed S  -full (paper scale)
       -workers N (parallel sweep points; default GOMAXPROCS)
       -progress (periodic stderr line: cells, events/sec, ETA)
       -exact-fct (per-flow records + exact P99 instead of streaming t-digest)
       -stats FILE [-stats-text]  -trace FILE [-trace-events N]
       -explain (verdict-breakdown report: why each mark/drop happened)
       -ledger FILE [-ledger-events N]  (decision ledger, JSONL)
       -perfetto FILE [-perfetto-events N]  (pipeline spans, Perfetto JSON)
       -serve ADDR  -timeseries FILE[.json]  -flow-spans FILE
       -sample-period DUR
       -fingerprint FILE [-fingerprint-epoch DUR] [-fingerprint-fine EPOCH]
         (digest timeline for tcndiff; fine mode adds per-event digests
          around the named epoch to localize the first divergent event)
       -profile FILE  (sim-structured cost profile, gzip pprof protobuf:
          events + sim-time attributed to engine/port/qdisc/sched/marker/
          transport scopes; read with 'go tool pprof -top FILE')
       -profile-folded FILE  (same profile as folded flamegraph stacks;
          diff two runs with tcndiff -profile-a A -profile-b B)
       -profile-wall  (add wall-clock self-time per scope — telemetry
          only, never digested; the deterministic planes stay identical)`)
}

func parseLoads(s string) []float64 {
	if s == "" {
		return nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad load %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func runFig1(c runConfig) {
	fmt.Println("== Figure 1: per-port ECN/RED violates the DWRR policy ==")
	for _, scheme := range []experiments.Scheme{experiments.SchemePortRED, experiments.SchemeTCN} {
		cfg := experiments.DefaultFig1()
		cfg.Scheme = scheme
		cfg.Seed = c.seed
		cfg.Obs = obsSink
		cfg.Workers = c.workers
		res := experiments.RunFig1(cfg)
		fmt.Printf("\n%s:\n%-10s %12s %12s %10s\n", scheme, "svc2 flows", "svc1 Mbps", "svc2 Mbps", "svc2 share")
		var rows [][]string
		for _, p := range res.Points {
			fmt.Printf("%-10d %12.0f %12.0f %9.0f%%\n",
				p.Service2Flows, p.Service1Mbps, p.Service2Mbps, 100*p.Service2Share)
			rows = append(rows, []string{
				strconv.Itoa(p.Service2Flows), ftoa(p.Service1Mbps),
				ftoa(p.Service2Mbps), ftoa(p.Service2Share),
			})
		}
		writeCSV("fig1-"+string(scheme)+".csv",
			[]string{"svc2_flows", "svc1_mbps", "svc2_mbps", "svc2_share"}, rows)
	}
}

func runFig2(c runConfig) {
	fmt.Println("== Figure 2: queue-1 capacity estimation after the 10ms step ==")
	cfg := experiments.DefaultFig2()
	cfg.Seed = c.seed
	cfg.Obs = obsSink
	res := experiments.RunFig2(cfg)
	fmt.Printf("%-14s %10s %12s %10s %10s %10s\n",
		"estimator", "samples/2ms", "converge", "min Gbps", "max Gbps", "final")
	for _, tr := range res.Traces {
		conv := "never"
		if tr.ConvergeTime > 0 {
			conv = tr.ConvergeTime.String()
		}
		fmt.Printf("%-14s %10d %12s %10.1f %10.1f %10.2f\n",
			tr.Scheme, tr.SamplesInWindow, conv, tr.MinGbps, tr.MaxGbps, tr.FinalGbps)
		csvSamples("fig2-"+tr.Scheme+"-smoothed.csv", "gbps", tr.Smoothed)
		if len(tr.Raw) > 0 {
			csvSamples("fig2-"+tr.Scheme+"-raw.csv", "gbps", tr.Raw)
		}
	}
}

func runFig3(c runConfig) {
	fmt.Println("== Figure 3: buffer occupancy by marking placement ==")
	cfg := experiments.DefaultFig3()
	cfg.Seed = c.seed
	cfg.Obs = obsSink
	res := experiments.RunFig3(cfg)
	fmt.Printf("BDP = %d bytes\n%-10s %12s %10s %14s %14s\n",
		res.BDP, "scheme", "peak bytes", "peak/BDP", "steady max", "steady mean")
	for _, tr := range res.Traces {
		fmt.Printf("%-10s %12d %10.2f %14d %14d\n",
			tr.Scheme, tr.PeakBytes, float64(tr.PeakBytes)/float64(res.BDP),
			tr.SteadyMaxBytes, tr.SteadyMeanBytes)
		csvSamples("fig3-"+string(tr.Scheme)+".csv", "occupancy_bytes", tr.Occupancy)
	}
}

func runFig4(runConfig) {
	fmt.Println("== Figure 4: workload flow-size CDFs ==")
	experiments.PrintWorkloads(os.Stdout)
}

func runFig5a(c runConfig) {
	fmt.Println("== Figure 5a: SP/WFQ goodput under TCN ==")
	cfg := experiments.DefaultFig5()
	cfg.Seed = c.seed
	cfg.Obs = obsSink
	res := experiments.RunFig5a(cfg)
	fmt.Printf("steady-state goodput: q1(SP)=%.0f q2(WFQ)=%.0f q3(WFQ)=%.0f Mbps\n",
		res.SteadyMbps[0], res.SteadyMbps[1], res.SteadyMbps[2])
	fmt.Println("goodput series (100ms bins, Mbps):")
	var rows [][]string
	for q := 0; q < 3; q++ {
		fmt.Printf("  q%d: ", q+1)
		for i, v := range res.GoodputMbps[q] {
			fmt.Printf("%4.0f ", v)
			for len(rows) <= i {
				rows = append(rows, []string{ftoa(float64(i) * 0.1), "", "", ""})
			}
			rows[i][q+1] = ftoa(v)
		}
		fmt.Println()
	}
	writeCSV("fig5a.csv", []string{"time_s", "q1_mbps", "q2_mbps", "q3_mbps"}, rows)
}

func runFig5b(c runConfig) {
	fmt.Println("== Figure 5b: RTT through the busy WFQ queue ==")
	fmt.Printf("%-10s %12s %12s %8s\n", "scheme", "mean RTT", "p99 RTT", "samples")
	for _, s := range []experiments.Scheme{
		experiments.SchemeTCN, experiments.SchemeRED,
		experiments.SchemeOracle, experiments.SchemeCoDel,
	} {
		cfg := experiments.DefaultFig5()
		cfg.Scheme = s
		cfg.Seed = c.seed
		cfg.Obs = obsSink
		res := experiments.RunFig5b(cfg)
		fmt.Printf("%-10s %12s %12s %8d\n", s, res.MeanRTT, res.P99RTT, len(res.Samples))
	}
}

func printFCTHeader() {
	fmt.Printf("%-8s %-7s %5s | %10s %10s %10s %10s | %6s %8s %7s\n",
		"scheme", "sched", "load", "avg all", "avg small", "p99 small", "avg large",
		"to(sm)", "drops", "unfin")
}

func printFCTRow(scheme, sched string, load float64, st metrics.FCTStats, drops, unfinished int) {
	fmt.Printf("%-8s %-7s %5.2f | %10v %10v %10v %10v | %6d %8d %7d\n",
		scheme, sched, load, st.AvgAll, st.AvgSmall, st.P99Small, st.AvgLarge,
		st.TimeoutsSmall, drops, unfinished)
}

// runSweepSeeds executes a testbed sweep once per seed, printing every
// run and a mean±stddev summary when more than one seed is requested.
func runSweepSeeds(c runConfig, run func(experiments.SweepConfig) experiments.FCTSweep) {
	var sweeps []experiments.FCTSweep
	for i := 0; i < c.seeds; i++ {
		sc := c.testbedSweep()
		sc.Seed = c.seed + int64(i)
		sweeps = append(sweeps, run(sc))
	}
	for _, sw := range sweeps {
		printSweep(sw)
		csvSweep(sw)
	}
	if len(sweeps) > 1 {
		printSeedSummary(sweeps)
	}
}

// printSeedSummary aggregates small-flow stats across seeds.
func printSeedSummary(sweeps []experiments.FCTSweep) {
	fmt.Printf("across %d seeds (mean\u00b1std of avg small / p99 small, us):\n", len(sweeps))
	ref := sweeps[0]
	for i, s := range ref.Schemes {
		for j, load := range ref.Loads {
			var avg, p99 []float64
			for _, sw := range sweeps {
				avg = append(avg, sw.Cells[i][j].Stats.AvgSmall.Microseconds())
				p99 = append(p99, sw.Cells[i][j].Stats.P99Small.Microseconds())
			}
			am, as := meanStd(avg)
			pm, ps := meanStd(p99)
			fmt.Printf("  %-8s load %.1f: %8.0f\u00b1%-7.0f %8.0f\u00b1%-7.0f\n", s, load, am, as, pm, ps)
		}
	}
}

func meanStd(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}

func printSweep(sw experiments.FCTSweep) {
	fmt.Printf("== %s: FCT sweep over %s ==\n", sw.Figure, sw.Sched)
	printFCTHeader()
	for i, s := range sw.Schemes {
		for j, load := range sw.Loads {
			cell := sw.Cells[i][j]
			printFCTRow(string(s), string(sw.Sched), load, cell.Stats, cell.Drops, cell.Unfinished)
		}
	}
	printNormalized(sw)
}

func printNormalized(sw experiments.FCTSweep) {
	tcnRow := -1
	for i, s := range sw.Schemes {
		if s == experiments.SchemeTCN {
			tcnRow = i
		}
	}
	if tcnRow < 0 {
		return
	}
	fmt.Println("normalized to TCN (avg small / p99 small / avg large):")
	for i, s := range sw.Schemes {
		fmt.Printf("  %-8s", s)
		for j, load := range sw.Loads {
			n := sw.Cells[i][j].Stats.Normalize(sw.Cells[tcnRow][j].Stats)
			fmt.Printf("  load %.1f: %.2f/%.2f/%.2f", load, n.AvgSmall, n.P99Small, n.AvgLarge)
		}
		fmt.Println()
	}
}

func runDCQCN(c runConfig) {
	fmt.Println("== DCQCN under TCN marking: cut-off vs probabilistic (§4.3) ==")
	cfg := experiments.DefaultDCQCNSweep()
	cfg.Base.Seed = c.seed
	cfg.Base.Obs = obsSink
	cfg.Workers = c.workers
	sw := experiments.RunDCQCNSweep(cfg)
	fmt.Printf("%-14s %8s %8s %10s %12s %12s %8s\n",
		"marker", "senders", "jain", "agg Gbps", "queue mean", "queue std", "CNPs")
	var rows [][]string
	for r, row := range [][]experiments.DCQCNMarkingResult{sw.CutOff, sw.Probabilistic} {
		name := "cut-off"
		if r == 1 {
			name = "probabilistic"
		}
		for i, res := range row {
			fmt.Printf("%-14s %8d %8.4f %10.2f %12.0f %12.0f %8d\n",
				name, sw.Senders[i], res.Jain, res.AggGbps, res.QueueMean, res.QueueStd, res.CNPs)
			rows = append(rows, []string{
				name, strconv.Itoa(sw.Senders[i]), ftoa(res.Jain),
				ftoa(res.AggGbps), ftoa(res.QueueMean), ftoa(res.QueueStd), strconv.Itoa(res.CNPs),
			})
		}
	}
	writeCSV("dcqcn.csv",
		[]string{"marker", "senders", "jain", "agg_gbps", "queue_mean_bytes", "queue_std_bytes", "cnps"}, rows)
}

func printLeafSweep(sw experiments.LeafSpineSweep) {
	fmt.Printf("== %s: leaf-spine FCT sweep over %s ==\n", sw.Figure, sw.Sched)
	printFCTHeader()
	for i, s := range sw.Schemes {
		for j, load := range sw.Loads {
			cell := sw.Cells[i][j]
			printFCTRow(string(s), string(sw.Sched), load, cell.Stats, cell.Drops, cell.Unfinished)
		}
	}
}

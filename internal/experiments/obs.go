package experiments

import (
	"fmt"

	"tcn/internal/digest"
	"tcn/internal/fabric"
	"tcn/internal/metrics"
	"tcn/internal/obs"
	"tcn/internal/obs/flight"
	"tcn/internal/obs/perf"
	"tcn/internal/obs/prof"
	"tcn/internal/parallel"
	"tcn/internal/pkt"
	"tcn/internal/sim"
	"tcn/internal/trace"
	"tcn/internal/transport"
)

// Obs bundles the observability sinks a runner can attach to the fabric it
// builds: a stats registry for counters/gauges/histograms, a packet
// tracer, and a flight recorder for periodic sampling and flow spans. Any
// field may be nil, and a nil *Obs attaches nothing, so runners call the
// Attach methods unconditionally and uninstrumented runs stay on the fast
// path.
type Obs struct {
	Registry *obs.Registry
	Tracer   *trace.Tracer
	Flight   *flight.Recorder
	Ledger   *trace.Ledger
	Pipeline *trace.Pipeline

	// Fingerprint, when set, snapshots per-component digest chains at
	// sim-time epochs so two runs can be diffed with tcndiff. Like the
	// sinks above it is shared mutable state and forces sweeps serial.
	Fingerprint *digest.Recorder

	// Profiler, when set, attributes executed events and sim-time (and,
	// in wall mode, wall self-time) to the component stack. Its counters
	// are plain fields owned by the running goroutine, so like the sinks
	// above it forces sweeps serial — unlike them it adds no events, so
	// profiled runs fingerprint identically to bare runs.
	Profiler *prof.Profiler

	// Perf is the simulator self-telemetry campaign. Unlike the sinks
	// above it is atomics-only and deliberately share-safe, so it does
	// NOT count toward Active() and never forces a sweep serial.
	Perf *perf.Campaign
}

// Active reports whether any simulated-network sink is attached. Parallel
// sweep runners use it to clamp fan-out to serial execution: the
// registry, tracer, flight recorder, ledger, and pipeline are shared
// mutable state across every cell that attaches to them, unlike the
// cells' own engines. Perf is excluded: it observes the simulator, not
// the simulation, through atomics that tolerate any worker count.
func (o *Obs) Active() bool {
	return o != nil && (o.Registry != nil || o.Tracer != nil || o.Flight != nil ||
		o.Ledger != nil || o.Pipeline != nil || o.Fingerprint != nil || o.Profiler != nil)
}

// Tracker returns the perf campaign as a parallel.Tracker, or nil when no
// campaign is attached — never a typed nil, so RunTracked's nil check
// works.
func (o *Obs) Tracker() parallel.Tracker {
	if o == nil || o.Perf == nil {
		return nil
	}
	return o.Perf
}

// AttachEngine hooks a cell's engine into the campaign's live meter so
// -progress and /perf.json see events and sim time as they happen, and —
// when a fingerprint recorder is attached — opens the cell's digest scope,
// registers the engine (and the shared ledger) in it, and schedules the
// epoch snapshot ticker. Call it right after sim.NewEngine, before the
// cell builds its fabric; a nil *Obs attaches nothing.
func (o *Obs) AttachEngine(eng *sim.Engine) {
	if o == nil {
		return
	}
	if o.Perf != nil {
		eng.SetMeter(o.Perf.Meter())
	}
	if o.Fingerprint != nil {
		o.attachFingerprint(eng)
	}
	if o.Profiler != nil {
		o.Profiler.AttachEngine(eng)
	}
}

// attachFingerprint wires one cell's engine into the fingerprint recorder.
// Registration order is the digest order, so the sequence here (engine,
// then ledger, then whatever the runner registers via AttachPort/
// AttachRand/AttachFCT in its own program order) must stay deterministic —
// it is, because a fingerprinting sweep runs serially (Active) and cells
// build their fabrics in program order.
func (o *Obs) attachFingerprint(eng *sim.Engine) {
	fp := o.Fingerprint
	sc := fp.ScopeFor(eng)
	sc.Register(digest.ComponentEngine, "engine", eng)
	if o.Ledger != nil {
		sc.Register(digest.ComponentLedger, "ledger", o.Ledger)
	}
	// Epoch ticker: the first snapshot fires at t=0 (after setup, when
	// the run starts) and then every EpochNs of sim time, so two
	// comparable runs snapshot at identical instants. It stops once the
	// cell's model has run out of events and every ticker on the engine
	// has ticked once more (sim.Engine.Every), so the epochs cover the
	// whole run and its final state, but not the idle tail up to the
	// deadline. The ticks are engine events, which is why
	// fingerprinted runs are only compared against fingerprinted runs.
	eng.Every(sim.Time(fp.EpochNs()), func() {
		sc.Snapshot(int64(eng.Now()))
	})
	if fp.FineEnabled() {
		// Fine mode: digest the whole scope after every executed event.
		// Outside the requested two-epoch bracket this is one boolean
		// test per event (plus the engine's nil check when disabled).
		// AddPostEvent, not Set: the profiler chains onto the same hook.
		eng.AddPostEvent(func(now sim.Time, executed uint64) {
			sc.FineSnapshot(executed, int64(now))
		})
	}
}

// AttachRand registers a cell's random stream in the cell's digest scope,
// so a divergence in randomness consumption is localized to the "rand"
// component. Call after AttachEngine, from the cell's own setup. No-op
// without a fingerprint recorder.
func (o *Obs) AttachRand(eng *sim.Engine, rng *sim.Rand) {
	if o == nil || o.Fingerprint == nil {
		return
	}
	if sc := o.Fingerprint.ScopeOf(eng); sc != nil {
		sc.Register(digest.ComponentRand, "rand", rng)
	}
}

// AttachFCT registers a cell's FCT collector (tallies plus the streaming
// small-flow t-digest) in the cell's digest scope. No-op without a
// fingerprint recorder.
func (o *Obs) AttachFCT(eng *sim.Engine, col *metrics.FCTCollector) {
	if o == nil || o.Fingerprint == nil || col == nil {
		return
	}
	if sc := o.Fingerprint.ScopeOf(eng); sc != nil {
		sc.Register(digest.ComponentTDigest, "fct", col)
	}
}

// ReportCell closes a finished cell: it checks the port conservation law
// on the cell's switches (in every build, observed or not), folds the
// engine and packet-pool counters into the campaign totals, and closes
// the profiler's books (the final clock advance past the last event
// becomes engine-owned sim-time). Every runner calls it once per cell,
// after the last RunUntil, from the goroutine that owns the engine.
func (o *Obs) ReportCell(eng *sim.Engine, pool *pkt.Pool, switches ...*fabric.Switch) {
	for _, sw := range switches {
		sw.CheckConservation()
	}
	if o == nil {
		return
	}
	if o.Profiler != nil {
		o.Profiler.FinishEngine(eng)
	}
	if o.Perf == nil {
		return
	}
	o.Perf.ReportEngine(eng)
	o.Perf.ReportPool(pool)
}

// ReportFCT hands a finished cell's small-flow FCT digest (streaming
// collectors only) to the campaign for /campaign.json quantiles.
func (o *Obs) ReportFCT(col *metrics.FCTCollector) {
	if o == nil || o.Perf == nil || col == nil {
		return
	}
	o.Perf.ReportDigest(col.SmallDigest())
}

// newFCTCollector picks the collector mode for a runner: streaming
// (bounded memory, digest P99) by default, exact per-flow records when
// the caller needs them (determinism harness, record dumps).
func newFCTCollector(exact bool) *metrics.FCTCollector {
	if exact {
		return metrics.NewFCTCollector()
	}
	return metrics.NewStreamingFCTCollector(metrics.DefaultCompression)
}

// instrumenter is implemented by the markers that can record their
// decisions and internal state into a registry (TCN, RED variants, CoDel,
// MQ-ECN, ...).
type instrumenter interface {
	Instrument(r *obs.Registry, label string)
}

// AttachPort instruments one switch egress port under label: per-queue
// counters and histograms in the registry (plus the marker's own
// instruments under label.marker), packet events in the tracer, and
// periodic probes plus flow spans in the flight recorder.
func (o *Obs) AttachPort(label string, p *fabric.Port) {
	if o == nil {
		return
	}
	if o.Registry != nil {
		p.Instrument(o.Registry, label)
		if m, ok := p.Marker().(instrumenter); ok {
			m.Instrument(o.Registry, label+".marker")
		}
	}
	if o.Tracer != nil {
		o.Tracer.AttachPort(label, p)
	}
	if o.Ledger != nil {
		o.Ledger.AttachPort(label, p)
	}
	if o.Pipeline != nil {
		o.Pipeline.AttachPort(label, p)
	}
	if o.Flight != nil {
		flight.AttachPortProbes(o.Flight, label, p)
		flight.AttachPortSpans(o.Flight, p)
	}
	if o.Fingerprint != nil {
		if sc := o.Fingerprint.ScopeOf(p.Engine()); sc != nil {
			sc.Register(digest.ComponentPort, label, p)
		}
	}
	if o.Profiler != nil {
		p.SetProfiler(o.Profiler, label)
	}
}

// AttachTransport brackets a cell's transport stack with cost-profiler
// scopes so endpoint protocol work is attributed to the transport rather
// than the engine. Call after transport.NewStack; a nil *Obs or an
// unprofiled run attaches nothing.
func (o *Obs) AttachTransport(st *transport.Stack) {
	if o == nil || o.Profiler == nil {
		return
	}
	st.SetProfiler(o.Profiler)
}

// AttachStar instruments every switch egress port of a star topology,
// labelled <prefix>.sw.p<i>.
func (o *Obs) AttachStar(prefix string, net *fabric.Star) {
	if o == nil {
		return
	}
	for i := 0; i < net.Switch.NumPorts(); i++ {
		o.AttachPort(fmt.Sprintf("%s.sw.p%d", prefix, i), net.Switch.Port(i))
	}
}

// AttachLeafSpine instruments every switch egress port of a leaf-spine
// fabric, labelled <prefix>.sw<id>.p<i> using the owning switch's id.
func (o *Obs) AttachLeafSpine(prefix string, net *fabric.LeafSpine) {
	if o == nil {
		return
	}
	attach := func(sw *fabric.Switch) {
		for i := 0; i < sw.NumPorts(); i++ {
			o.AttachPort(fmt.Sprintf("%s.sw%d.p%d", prefix, sw.ID, i), sw.Port(i))
		}
	}
	for _, sw := range net.Leaves {
		attach(sw)
	}
	for _, sw := range net.Spines {
		attach(sw)
	}
}

// figSeriesCap sizes the figure-defining series rings so they never wrap
// at the papers' sampling rates: the figure post-processing (convergence
// times, steady-state means) then sees every sample, keeping results
// identical to the pre-flight-recorder accumulation.
const figSeriesCap = 1 << 15

// flightRecorder returns the bundle's flight recorder, or a private
// throwaway one when none is attached — experiment time series always
// route through the sampler, instrumented run or not.
func (o *Obs) flightRecorder() *flight.Recorder {
	if o != nil && o.Flight != nil {
		return o.Flight
	}
	return flight.New(flight.Config{SeriesCap: figSeriesCap})
}

// samplesOf converts a flight series into the metrics.Sample slice the
// figure result structs expose.
func samplesOf(s *flight.Series) []metrics.Sample {
	out := make([]metrics.Sample, 0, s.Len())
	for _, p := range s.Points() {
		out = append(out, metrics.Sample{At: p.At, Value: p.V})
	}
	return out
}

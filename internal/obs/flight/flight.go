// Package flight is the simulator's flight recorder: the telemetry layer
// that watches state *evolve* in sim time rather than summarizing it after
// the fact (the paper's key evidence — Fig. 2's rate-estimator traces,
// Fig. 10's sojourn dynamics — is dynamics, not endpoints).
//
// Three pieces:
//
//  1. A sim-clock-driven periodic sampler. Probes (queue depth, buffer
//     pool occupancy, instantaneous mark probability, per-port
//     throughput and mark-rate deltas) are polled on the
//     discrete-event engine and recorded into fixed-capacity Series rings
//     with deterministic downsampling on wrap. Export as CSV or JSON.
//  2. A per-flow span tracker (span.go) that stitches packet lifecycle
//     events — first enqueue, marks, drops, last dequeue — into flow
//     records, bounded by deterministic reservoir sampling.
//  3. An exposition layer (prom.go, export.go) rendering every registry
//     instrument in Prometheus text format and publishing consistent
//     snapshots that an HTTP front end (cmd/tcnsim -serve) can serve
//     while the simulation is still running.
//
// Determinism: probes and spans only *read* simulation state, so an
// instrumented run produces bit-identical results to a bare one; and all
// retention decisions (ring strides, reservoir picks) depend only on the
// offered sequence and the recorder's own seed, so identical runs export
// identical bytes.
//
// Concurrency: the simulation is single-goroutine, and everything the
// recorder does on the hot path stays on that goroutine. The only
// cross-goroutine surface is the published Exposition, handed off through
// atomics: an HTTP handler calls RequestPublish, the next sampler tick
// renders a snapshot on the sim goroutine, and the handler picks it up
// with Latest.
package flight

import (
	"bytes"
	"sync"
	"sync/atomic"

	"tcn/internal/obs"
	"tcn/internal/sim"
	"tcn/internal/trace"
)

// Config parameterizes a Recorder. Zero values select the defaults.
type Config struct {
	// SeriesCap is the ring capacity of each series (default 4096
	// points). A series that outgrows it is downsampled, not truncated.
	SeriesCap int
	// Period is the default probe polling period (default 100 us).
	Period sim.Time
	// SpanFlows bounds the flow-span reservoir (default 4096 flows).
	SpanFlows int
	// Seed feeds the reservoir sampler (default 1). It is independent of
	// the experiment seed so tracking more flows never perturbs a run.
	Seed int64
	// Registry, if set, is rendered into the Prometheus exposition.
	Registry *obs.Registry
	// Ledger, if set, is rendered into the exposition as JSONL (the
	// /ledger.jsonl endpoint).
	Ledger *trace.Ledger
	// Pipeline, if set, is rendered into the exposition as Chrome
	// trace-event JSON (the /trace.perfetto.json endpoint).
	Pipeline *trace.Pipeline
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.SeriesCap == 0 {
		c.SeriesCap = 4096
	}
	if c.Period == 0 {
		c.Period = 100 * sim.Microsecond
	}
	if c.SpanFlows == 0 {
		c.SpanFlows = 4096
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Recorder owns the series, probes, and flow spans of one tcnsim
// invocation. One recorder may span several experiment runs (each with its
// own engine); series names carry the run label.
type Recorder struct {
	cfg Config

	series []*Series
	byName map[string]*Series

	tickers []*ticker

	spans *SpanTracker

	// Exposition handoff (see package comment).
	want     atomic.Bool
	pub      atomic.Pointer[Exposition]
	gen      atomic.Uint64
	done     chan struct{}
	sealOnce sync.Once
}

// ticker drives every probe sharing one (engine, period) pair from a
// single sim.Engine.Every tick, so instrumenting hundreds of ports adds
// one event per period, not one per probe.
type ticker struct {
	eng    *sim.Engine
	period sim.Time
	probes []tickProbe
}

// tickProbe pairs a probe function with its destination series.
// everyTick marks a probe that must run on every tick even when its
// series discards the sample — a rate probe, whose value is the counter
// delta since its previous call.
type tickProbe struct {
	s         *Series
	fn        func(now sim.Time) float64
	everyTick bool
}

// New returns an empty recorder.
func New(cfg Config) *Recorder {
	return &Recorder{
		cfg:    cfg.withDefaults(),
		byName: map[string]*Series{},
		done:   make(chan struct{}),
	}
}

// Registry returns the registry rendered into /metrics (may be nil).
func (r *Recorder) Registry() *obs.Registry { return r.cfg.Registry }

// Series returns the series registered under name, creating it with the
// default ring capacity on first use. Use it directly for event-driven
// telemetry (estimator samples, per-event values); use Probe for periodic
// polling.
func (r *Recorder) Series(name string) *Series {
	return r.SeriesCap(name, r.cfg.SeriesCap)
}

// SeriesCap is Series with an explicit ring capacity, applied only on
// first use (a series' capacity is fixed for its lifetime).
func (r *Recorder) SeriesCap(name string, capacity int) *Series {
	if s, ok := r.byName[name]; ok {
		return s
	}
	s := newSeries(name, capacity)
	r.byName[name] = s
	r.series = append(r.series, s)
	return s
}

// Probe registers fn to be polled every period on eng, recording into the
// series registered under name. period <= 0 selects the recorder default.
// The probe samples from the engine's current instant until the model runs
// out of events (sim.Engine.Every): its last sample falls within one
// period of the last model event, or of the engine's slowest other
// ticker, so a drained run records the final state but no idle tail, and a
// run stopped by its RunUntil deadline never fires the pending tick past
// it. Probes sharing (eng, period) share one ticker.
//
// fn must only read state: it runs only for the samples the series keeps,
// so once the series has wrapped to stride k it runs on every k-th tick.
// Every tick still counts in the series' Offered.
func (r *Recorder) Probe(eng *sim.Engine, name string, period sim.Time, fn func(now sim.Time) float64) *Series {
	return r.probe(eng, period, tickProbe{s: r.Series(name), fn: fn})
}

// probe registers p on the ticker of (eng, period); see Probe.
func (r *Recorder) probe(eng *sim.Engine, period sim.Time, p tickProbe) *Series {
	if period <= 0 {
		period = r.cfg.Period
	}
	for _, t := range r.tickers {
		if t.eng == eng && t.period == period {
			t.probes = append(t.probes, p)
			return p.s
		}
	}
	t := &ticker{eng: eng, period: period}
	t.probes = append(t.probes, p)
	r.tickers = append(r.tickers, t)
	eng.Every(period, func() {
		now := eng.Now()
		for _, p := range t.probes {
			if p.s.thin() {
				if p.everyTick {
					p.fn(now)
				}
				continue
			}
			p.s.keep(now, p.fn(now))
		}
		r.publishIfRequested()
	})
	return p.s
}

// Spans returns the recorder's flow-span tracker, creating it on first
// use.
func (r *Recorder) Spans() *SpanTracker {
	if r.spans == nil {
		r.spans = NewSpanTracker(r.cfg.SpanFlows, r.cfg.Seed)
	}
	return r.spans
}

// AllSeries returns every series sorted by name (they are registered in
// deterministic order and lookups go through the byName map, so the slice
// order already is the registration order; exports sort explicitly).
func (r *Recorder) AllSeries() []*Series {
	out := make([]*Series, len(r.series))
	copy(out, r.series)
	sortSeriesByName(out)
	return out
}

// Exposition is one published snapshot of the recorder's state, rendered
// on the simulation goroutine so it is internally consistent.
type Exposition struct {
	// Gen increases with every publication.
	Gen uint64
	// Prom is the Prometheus text-format rendering of the registry
	// (empty when the recorder has no registry).
	Prom []byte
	// Timeseries is the CSV export of every series.
	Timeseries []byte
	// Flows is the CSV export of the tracked flow spans.
	Flows []byte
	// Ledger is the JSONL export of the decision ledger (empty when the
	// recorder has no ledger).
	Ledger []byte
	// Perfetto is the Chrome trace-event JSON export of the pipeline
	// recorder (empty when the recorder has no pipeline).
	Perfetto []byte
}

// RequestPublish asks the simulation goroutine to render a fresh
// Exposition at its next sampler tick. Safe to call from any goroutine.
func (r *Recorder) RequestPublish() { r.want.Store(true) }

// Latest returns the most recently published Exposition, or nil if none
// has been rendered yet. Safe to call from any goroutine.
func (r *Recorder) Latest() *Exposition { return r.pub.Load() }

// Done is closed by Seal, after which Latest returns the final state.
func (r *Recorder) Done() <-chan struct{} { return r.done }

// publishIfRequested renders a snapshot if a consumer asked for one since
// the last tick. Runs on the simulation goroutine.
func (r *Recorder) publishIfRequested() {
	if r.want.CompareAndSwap(true, false) {
		r.publish()
	}
}

// publish renders and stores a fresh Exposition. It allocates freely: a
// sampler tick calls it only when a consumer asked (publishIfRequested).
//
//tcnlint:cold runs only on a consumer's publish request, never per tick
func (r *Recorder) publish() {
	e := &Exposition{Gen: r.gen.Add(1)}
	var buf bytes.Buffer
	if r.cfg.Registry != nil {
		// Rendering a registry cannot fail into a bytes.Buffer.
		_ = WriteProm(&buf, r.cfg.Registry)
		e.Prom = append([]byte(nil), buf.Bytes()...)
		buf.Reset()
	}
	_ = r.WriteTimeseriesCSV(&buf)
	e.Timeseries = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	_ = r.Spans().WriteCSV(&buf)
	e.Flows = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if r.cfg.Ledger != nil {
		// Rendering into a bytes.Buffer cannot fail.
		_ = r.cfg.Ledger.WriteJSONL(&buf)
		e.Ledger = append([]byte(nil), buf.Bytes()...)
		buf.Reset()
	}
	if r.cfg.Pipeline != nil {
		_ = r.cfg.Pipeline.WriteJSON(&buf)
		e.Perfetto = append([]byte(nil), buf.Bytes()...)
	}
	r.pub.Store(e)
}

// Seal publishes the final state and closes Done. Call once after the
// last run completes; afterwards the recorder is read-only and the final
// Exposition serves every consumer. Idempotent.
func (r *Recorder) Seal() {
	r.sealOnce.Do(func() {
		r.want.Store(false)
		r.publish()
		close(r.done)
	})
}

package main

import (
	"tcn/internal/digest"
	"tcn/internal/experiments"
	"tcn/internal/obs"
	"tcn/internal/obs/flight"
	"tcn/internal/obs/prof"
	"tcn/internal/sim"
	"tcn/internal/trace"
)

// Sink sizes are tcnsim's defaults: 1<<16 retained events per ring,
// 100 µs flight-recorder probes and 1 ms fingerprint epochs.
const (
	ringEvents        = 1 << 16
	flightPeriod      = 100 * sim.Microsecond
	fingerprintEpochs = int64(sim.Millisecond)
)

// sinkNames are the observers priced one by one, in measuring order.
var sinkNames = []string{"registry", "tracer", "ledger", "pipeline", "flight", "fingerprint", "profiler"}

// oneSink returns an Obs with only the named sink attached, built as
// tcnsim builds it when that sink alone is asked for.
func oneSink(name string) *experiments.Obs {
	o := &experiments.Obs{}
	switch name {
	case "registry":
		o.Registry = obs.NewRegistry()
	case "tracer":
		o.Tracer = trace.New(ringEvents)
	case "ledger":
		o.Ledger = trace.NewLedger(ringEvents)
	case "pipeline":
		o.Pipeline = trace.NewPipeline(ringEvents)
	case "flight":
		o.Flight = flight.New(flight.Config{Period: flightPeriod})
	case "fingerprint":
		o.Fingerprint = digest.New(digest.Config{EpochNs: fingerprintEpochs})
	case "profiler":
		o.Profiler = prof.New(prof.Config{})
	default:
		panic("perfbench: unknown sink " + name)
	}
	return o
}

// allSinks returns an Obs with every sink attached and cross-wired as
// tcnsim -serve wires them; wall, when non-nil, turns on the profiler's
// wall-time plane.
func allSinks(wall prof.Clock) *experiments.Obs {
	reg := obs.NewRegistry()
	led := trace.NewLedger(ringEvents)
	led.Instrument(reg)
	pipe := trace.NewPipeline(ringEvents)
	return &experiments.Obs{
		Registry: reg,
		Tracer:   trace.New(ringEvents),
		Ledger:   led,
		Pipeline: pipe,
		Flight: flight.New(flight.Config{
			Period:   flightPeriod,
			Registry: reg,
			Ledger:   led,
			Pipeline: pipe,
		}),
		Fingerprint: digest.New(digest.Config{EpochNs: fingerprintEpochs}),
		Profiler:    prof.New(prof.Config{Wall: wall}),
	}
}

package main

import (
	"fmt"

	"tcn/internal/experiments"
	"tcn/internal/sim"
)

// setupDeadline stops a cell before its first event: every planned
// arrival lies after it (TestSetupDeadlineBeforeArrivals), so a run to it
// executes nothing.
const setupDeadline sim.Time = 1

// buildCell runs one cell of family f through its own runner with the
// deadline at setupDeadline, so the runner builds everything it builds
// before its first event — engine, arrival plan, topology from the
// scheme's PortParams.Factory, transport stack, collector, scheduled
// arrivals and o's sinks — and then stops. The Fig 6 cell is configured
// as RunFig6 configures its load-0.9 cell.
func buildCell(f family, scheme experiments.Scheme, in input, o *experiments.Obs) {
	if f == famFig10 {
		cfg := leafSpineConfig(scheme, in, o)
		cfg.Deadline = setupDeadline
		experiments.RunLeafSpine(cfg)
		return
	}
	experiments.RunTestbedFCT(experiments.TestbedFCTConfig{
		Scheme:   scheme,
		Sched:    experiments.SchedDWRR,
		Load:     fig6Load,
		Flows:    in.Flows,
		Seed:     in.PlanSeed,
		ExactFCT: true,
		Deadline: setupDeadline,
		Obs:      o,
		ObsLabel: fmt.Sprintf("fig6.%s.load%g", scheme, fig6Load),
	})
}

// Quickstart: assemble the paper's qdisc pipeline (§5) around a TCN
// marker, push a traffic burst through it, and watch which packets get
// CE-marked.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"

	"tcn/internal/core"
	"tcn/internal/fabric"
	"tcn/internal/pkt"
	"tcn/internal/qdisc"
	"tcn/internal/sched"
	"tcn/internal/sim"
)

func main() { run(os.Stdout) }

// run builds the pipeline, drives it and writes the report to w.
func run(w io.Writer) {
	eng := sim.NewEngine()

	// A 1 Gbps egress with two DWRR service queues guarded by TCN with
	// the standard threshold RTT×λ = 256 us (the paper's testbed value
	// for a 250 us base RTT).
	tcn := core.NewTCN(256 * sim.Microsecond)
	var sent, marked int
	q := qdisc.New(eng, qdisc.Config{
		Queues:    2,
		LineRate:  fabric.Gbps,
		Scheduler: sched.NewDWRREqual(2, 1500),
		Marker:    tcn,
		Transmit: func(now sim.Time, p *pkt.Packet) {
			sent++
			if p.ECN == pkt.CE {
				marked++
			}
		},
	})

	// Service 0 sends a steady trickle; service 1 dumps a 120 KB burst
	// at t=1ms. Only packets whose own sojourn exceeds the threshold
	// are marked — no per-queue thresholds to configure, no drain-rate
	// estimation, any scheduler.
	for i := 0; i < 200; i++ {
		at := sim.Time(i) * 50 * sim.Microsecond
		eng.At(at, func() {
			q.Enqueue(&pkt.Packet{Size: 1500, ECN: pkt.ECT0, DSCP: 0})
		})
	}
	eng.At(sim.Millisecond, func() {
		for i := 0; i < 80; i++ {
			q.Enqueue(&pkt.Packet{Size: 1500, ECN: pkt.ECT0, DSCP: 1})
		}
	})

	eng.Run()

	fmt.Fprintf(w, "transmitted %d packets, CE-marked %d (%.0f%%)\n",
		sent, marked, 100*float64(marked)/float64(sent))
	fmt.Fprintf(w, "TCN threshold %v; marks recorded by the marker: %d\n",
		tcn.Threshold, tcn.Marks)
	fmt.Fprintln(w, "the steady service-0 trickle passes unmarked; only the")
	fmt.Fprintln(w, "burst's tail, which waited longer than RTT×λ, was marked.")
}

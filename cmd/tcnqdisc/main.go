// Command tcnqdisc drives the §5 software-prototype pipeline standalone:
// it pushes a configurable synthetic traffic mix (steady trickles plus
// periodic bursts across service classes) through one qdisc instance and
// reports per-class marking, delay, and drop statistics for the chosen
// marker and scheduler — a workbench for trying AQM/scheduler pairings
// without building a whole network.
//
// Examples:
//
//	tcnqdisc -marker tcn -sched dwrr
//	tcnqdisc -marker codel -sched sp-wfq -classes 8 -burst 256
//	tcnqdisc -marker red -rate 10e9 -threshold 78us
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"tcn/internal/aqm"
	"tcn/internal/core"
	"tcn/internal/fabric"
	"tcn/internal/pkt"
	"tcn/internal/qdisc"
	"tcn/internal/sched"
	"tcn/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the report to stdout
// and errors to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tcnqdisc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		markerName = fs.String("marker", "tcn", "tcn | tcn-prob | codel | red | red-deq | port-red | dynred | wred | none")
		schedName  = fs.String("sched", "dwrr", "fifo | dwrr | wfq | sp-dwrr | sp-wfq")
		classes    = fs.Int("classes", 4, "service classes / queues")
		rateBps    = fs.Float64("rate", 1e9, "line rate, bits per second")
		threshold  = fs.Duration("threshold", 256*time.Microsecond, "TCN threshold / RTT×λ")
		buffer     = fs.Int("buffer", 96_000, "shared buffer bytes (0 = unlimited)")
		burst      = fs.Int("burst", 20, "packets per periodic burst")
		duration   = fs.Duration("dur", 200*time.Millisecond, "simulated duration")
		seed       = fs.Int64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	eng := sim.NewEngine()
	rng := sim.NewRand(*seed)
	rate := fabric.Rate(*rateBps)
	thr := sim.Time(threshold.Nanoseconds())
	kbytes := aqm.StandardThreshold(int64(rate), thr)

	scheduler := buildSched(*schedName, *classes)
	if scheduler == nil {
		fmt.Fprintf(stderr, "tcnqdisc: unknown scheduler %q\n", *schedName)
		return 2
	}
	marker := buildMarker(*markerName, *classes, thr, kbytes, rng)
	if marker == nil {
		fmt.Fprintf(stderr, "tcnqdisc: unknown marker %q\n", *markerName)
		return 2
	}

	type classStats struct {
		sent, marked, dropped int
		delaySum              sim.Time
	}
	stats := make([]classStats, *classes)

	q := qdisc.New(eng, qdisc.Config{
		Queues:      *classes,
		BufferBytes: *buffer,
		LineRate:    rate,
		Scheduler:   scheduler,
		Marker:      marker,
		Transmit: func(now sim.Time, p *pkt.Packet) {
			s := &stats[p.DSCP]
			s.sent++
			s.delaySum += p.Sojourn(now)
			if p.ECN == pkt.CE {
				s.marked++
			}
		},
	})

	// Traffic: class 0 a steady trickle at ~30% of its share; the other
	// classes alternate between trickles and synchronized bursts.
	push := func(class int) bool {
		p := &pkt.Packet{Size: 1500, Len: 1460, ECN: pkt.ECT0, DSCP: uint8(class)}
		ok := q.Enqueue(p)
		if !ok {
			stats[class].dropped++
		}
		return ok
	}
	stop := sim.Time(duration.Nanoseconds())
	var trickle func()
	trickle = func() {
		if eng.Now() >= stop {
			return
		}
		push(0)
		eng.After(rate.Serialize(1500)*sim.Time(*classes), trickle)
	}
	eng.After(0, trickle)
	var bursts func()
	bursts = func() {
		if eng.Now() >= stop {
			return
		}
		// Interleave classes so the shared buffer is contended
		// fairly rather than first-class-takes-all.
		for i := 0; i < *burst; i++ {
			for c := 1; c < *classes; c++ {
				push(c)
			}
		}
		eng.After(10*sim.Millisecond, bursts)
	}
	eng.After(sim.Millisecond, bursts)
	eng.RunUntil(stop + 100*sim.Millisecond)

	fmt.Fprintf(stdout, "marker=%s scheduler=%s rate=%v threshold=%v buffer=%dB\n\n",
		marker.Name(), scheduler.Name(), rate, thr, *buffer)
	fmt.Fprintf(stdout, "%-6s %8s %8s %8s %12s\n", "class", "sent", "marked", "dropped", "mean delay")
	for c, s := range stats {
		mean := sim.Time(0)
		if s.sent > 0 {
			mean = s.delaySum / sim.Time(s.sent)
		}
		fmt.Fprintf(stdout, "%-6d %8d %8d %8d %12v\n", c, s.sent, s.marked, s.dropped, mean)
	}
	return 0
}

// buildSched returns the named scheduler, or nil for an unknown name.
func buildSched(name string, classes int) sched.Scheduler {
	low := classes - 1
	switch name {
	case "fifo":
		return sched.NewFIFO()
	case "dwrr":
		return sched.NewDWRREqual(classes, 1500)
	case "wfq":
		return sched.NewWFQEqual(classes)
	case "sp-dwrr":
		return sched.NewSPOver(1, sched.NewDWRREqual(low, 1500))
	case "sp-wfq":
		return sched.NewSPOver(1, sched.NewWFQEqual(low))
	default:
		return nil
	}
}

// buildMarker returns the named marker, or nil for an unknown name.
func buildMarker(name string, classes int, thr sim.Time, kbytes int, rng *sim.Rand) core.Marker {
	switch name {
	case "tcn":
		return core.NewTCN(thr)
	case "tcn-prob":
		return core.NewProbTCN(thr/2, thr*3/2, 0.2, rng)
	case "codel":
		return aqm.NewCoDel(classes, thr/5, 4*thr)
	case "red":
		return aqm.NewQueueRED(kbytes)
	case "red-deq":
		return aqm.NewDequeueRED(kbytes)
	case "port-red":
		return aqm.NewPortRED(kbytes)
	case "dynred":
		return aqm.NewDynRED(classes, 10_000, thr)
	case "wred":
		return aqm.NewWRED(classes, kbytes/2, kbytes*3/2, 0.1, rng)
	case "none":
		return core.Nop{}
	default:
		return nil
	}
}

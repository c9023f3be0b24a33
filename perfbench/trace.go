package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"tcn/internal/obs/prof"
)

// Frame kinds the traced run reports self time for. A frame's kind is
// the text before its first ':' ("port:fig6.TCN.load0.9.sw.p8" is a
// port). Qdisc stages count as port work; any kind not listed here,
// like the root "engine" frame, counts as engine time, which therefore
// also holds host delay lines and link delivery.
var spanKinds = []string{"engine", "port", "sched", "marker", "transport"}

func frameKind(frame string) string {
	k, _, _ := strings.Cut(frame, ":")
	switch k {
	case "port", "qdisc":
		return "port"
	case "sched", "marker", "transport":
		return k
	}
	return "engine"
}

// stack is one line of a folded profile: frames root first, and the
// node's own value.
type stack struct {
	frames []string
	value  float64
}

// parseFolded reads prof.WriteFolded output: "a;b;c value" per line.
func parseFolded(text string) ([]stack, error) {
	var out []stack
	for i, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return nil, fmt.Errorf("folded line %d: no value in %q", i+1, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("folded line %d: %w", i+1, err)
		}
		out = append(out, stack{frames: strings.Split(line[:sp], ";"), value: v})
	}
	return out, nil
}

// selfByKind sums each stack's own value under the kind of its leaf
// frame. With the wall plane on, the values are self times in ns.
func selfByKind(stacks []stack) map[string]float64 {
	out := make(map[string]float64, len(spanKinds))
	for _, k := range spanKinds {
		out[k] = 0
	}
	for _, s := range stacks {
		out[frameKind(s.frames[len(s.frames)-1])] += s.value
	}
	return out
}

// eventCounts splits a deterministic-plane profile (values are executed
// events) into all events and the events that entered a switch port.
func eventCounts(stacks []stack) (all, port float64) {
	for _, s := range stacks {
		all += s.value
		for _, f := range s.frames {
			if frameKind(f) == "port" {
				port += s.value
				break
			}
		}
	}
	return all, port
}

func folded(p *prof.Profiler) ([]stack, error) {
	var b bytes.Buffer
	if err := p.WriteFolded(&b); err != nil {
		return nil, err
	}
	return parseFolded(b.String())
}

// cellModel is one cell's traced event counts and the ladder rungs that
// price the work they stand for.
type cellModel struct {
	events     float64 // every executed event
	portEvents float64 // events that entered a switch port
	sched      string  // rung of the port's scheduler (buffer Pop+Push included)
	marker     string  // rung of the cell's marker
}

// explainedFrac is the closure of the cost model: every event costs one
// schedule-and-fire, and every packet through a switch port — two port
// events, its arrival and its transmit completion — costs one scheduler
// step and one marker enqueue+dequeue. The predicted seconds are divided
// by the measured run seconds; the remainder is work the ladder does not
// price (transport, port bookkeeping, observers) and memory effects.
func explainedFrac(cells []cellModel, ns map[string]float64, runS float64) float64 {
	var pred float64
	for _, c := range cells {
		pred += c.events*ns["sim.schedule_fire_ns"] + c.portEvents/2*(ns[c.sched]+ns[c.marker])
	}
	return pred / 1e9 / runS
}

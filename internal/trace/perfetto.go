package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"tcn/internal/core"
	"tcn/internal/fabric"
	"tcn/internal/pkt"
	"tcn/internal/sim"
)

// Pipeline records per-packet pipeline-stage spans — time queued, wire
// occupancy — plus mark/drop instants, and renders
// them as Chrome trace-event JSON loadable in Perfetto or
// chrome://tracing. Each attached port becomes one process (pid) whose
// threads (tids) are its queues plus a "wire" track, so the scheduler's
// interleaving is directly visible on the timeline.
//
// Events live in a bounded ring: a long run keeps the most recent window
// (Perfetto traces are for inspecting dynamics, not exact accounting —
// the Ledger and Tracer carry exact counters).
type Pipeline struct {
	ring  ring[record]
	ports portTable // pid = index+1, tid 0 = wire, tid i+1 = queue i

	recorded int64 // total events offered, including evicted
}

// NewPipeline returns a pipeline recorder retaining up to capacity
// events.
func NewPipeline(capacity int) *Pipeline {
	return &Pipeline{ring: newRing[record](capacity)}
}

// Recorded returns the total number of events offered (exact, including
// evicted ones).
func (pl *Pipeline) Recorded() int64 { return pl.recorded }

// record adds one event to the ring.
func (pl *Pipeline) record(r record) {
	pl.recorded++
	pl.ring.push(r)
}

// AttachPort records a fabric port's pipeline under label: a "queued"
// span per transmitted packet (admission to scheduler pick), a "wire"
// span for its serialization time, and mark/drop instants from the
// verdict stream.
func (pl *Pipeline) AttachPort(label string, pt *fabric.Port) { attach(pl, &pl.ports, label, pt) }

func (pl *Pipeline) transmit(now sim.Time, port int32, qi int, p *pkt.Packet) {
	r := newRecord(p.EnqueuedAt, queuedSpan, port, qi, p)
	r.dur = now - p.EnqueuedAt
	pl.record(r)
	r.at, r.kind, r.dur = now, wireSpan, pl.ports.ports[port].rate.Serialize(p.Size)
	pl.record(r)
}

// verdict turns a decisive verdict into a mark or drop instant.
// Threshold crossings that could not mark (ECNIncapable) are ledger
// material, not timeline instants.
func (pl *Pipeline) verdict(now sim.Time, port int32, qi int, p *pkt.Packet, v *core.Verdict) {
	kind := Mark
	switch {
	case v.Dropped:
		kind = Drop
	case !v.Marked:
		return
	}
	r := newRecord(now, kind, port, qi, p)
	r.reason = v.Reason
	pl.record(r)
}

// Chrome trace-event JSON shapes. Field order is fixed by the structs,
// so identical recordings export identical bytes.

type perfettoDoc struct {
	TraceEvents     []perfettoEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
}

type perfettoEvent struct {
	Name string        `json:"name"`
	Ph   string        `json:"ph"`
	Pid  int           `json:"pid"`
	Tid  int           `json:"tid"`
	Ts   float64       `json:"ts"` // microseconds, Chrome convention
	Dur  *float64      `json:"dur,omitempty"`
	S    string        `json:"s,omitempty"`
	Args *perfettoArgs `json:"args,omitempty"`
}

type perfettoArgs struct {
	Name   string `json:"name,omitempty"`
	Flow   int32  `json:"flow,omitempty"`
	Seq    int64  `json:"seq,omitempty"`
	Size   int32  `json:"size,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// usec converts sim time to the microsecond floats Chrome traces use.
func usec(t sim.Time) float64 { return float64(t) / 1e3 }

// WriteJSON renders the retained events as one Chrome trace-event JSON
// document: metadata naming each port's process and queue/wire threads,
// then "queued"/"wire" complete spans and "mark"/"drop"
// instants (named by core.EventKind, matching every other export).
func (pl *Pipeline) WriteJSON(w io.Writer) error {
	doc := perfettoDoc{TraceEvents: []perfettoEvent{}, DisplayTimeUnit: "ns"}
	meta := func(name string, pid, tid int, arg string) {
		doc.TraceEvents = append(doc.TraceEvents,
			perfettoEvent{Name: name, Ph: "M", Pid: pid, Tid: tid, Args: &perfettoArgs{Name: arg}})
	}
	for i, tr := range pl.ports.ports {
		meta("process_name", i+1, 0, pl.ports.labels[tr.label])
		meta("thread_name", i+1, 0, "wire")
		for qi := 0; qi < tr.queues; qi++ {
			meta("thread_name", i+1, qi+1, fmt.Sprintf("q%d", qi))
		}
	}
	doc.TraceEvents = append(doc.TraceEvents, ordered(&pl.ring, func(e *record) perfettoEvent {
		ev := perfettoEvent{Pid: int(e.port) + 1, Tid: int(e.queue) + 1, Ts: usec(e.at),
			Args: &perfettoArgs{Flow: int32(e.flow), Seq: e.seq, Size: e.size}}
		switch e.kind {
		case queuedSpan:
			ev.Name, ev.Ph = "queued", "X"
		case wireSpan:
			ev.Name, ev.Ph, ev.Tid = "wire", "X", 0
		default: // Mark and Drop instants
			ev.Name, ev.Ph, ev.S = e.kind.String(), "i", "t"
			ev.Args.Reason = e.reason.String()
		}
		if ev.Ph == "X" {
			d := usec(e.dur)
			ev.Dur = &d
		}
		return ev
	})...)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(doc); err != nil {
		return err
	}
	return bw.Flush()
}

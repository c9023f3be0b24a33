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
	tracks []pipeTrack

	ring   []pipeEvent
	next   int
	filled bool

	recorded int64 // total events offered, including evicted
}

// pipeTrack is one attached port: its label and queue count fix the
// pid/tid numbering (pid = index+1 in attach order, tid 0 = wire,
// tid i+1 = queue i).
type pipeTrack struct {
	label  string
	queues int
}

// pipeKind discriminates the stored event shapes.
type pipeKind uint8

const (
	pipeQueued pipeKind = iota // span on queue track: enqueue → dequeue
	pipeWire                   // span on wire track: dequeue → tx done
	pipeMark                   // instant: CE applied (reason attached)
	pipeDrop                   // instant: admission drop
)

// pipeEvent is one ring slot, compact and pointer-free.
type pipeEvent struct {
	track  int32
	queue  int32
	kind   pipeKind
	reason core.Reason
	start  sim.Time
	dur    sim.Time
	flow   pkt.FlowID
	seq    int64
	size   int32
}

// NewPipeline returns a pipeline recorder retaining up to capacity
// events.
func NewPipeline(capacity int) *Pipeline {
	if capacity <= 0 {
		panic(fmt.Sprintf("trace: pipeline capacity %d must be positive", capacity))
	}
	return &Pipeline{ring: make([]pipeEvent, 0, capacity)}
}

// Recorded returns the total number of events offered (exact, including
// evicted ones).
func (pl *Pipeline) Recorded() int64 { return pl.recorded }

// record adds one event to the ring.
func (pl *Pipeline) record(e pipeEvent) {
	pl.recorded++
	if len(pl.ring) < cap(pl.ring) {
		pl.ring = append(pl.ring, e) //tcnlint:hotpath capacity-guarded; the ring never reallocates
		return
	}
	pl.ring[pl.next] = e
	pl.next = (pl.next + 1) % cap(pl.ring)
	pl.filled = true
}

// events returns the retained events in chronological (recording) order.
func (pl *Pipeline) events() []pipeEvent {
	if !pl.filled {
		return pl.ring
	}
	out := make([]pipeEvent, 0, cap(pl.ring))
	out = append(out, pl.ring[pl.next:]...)
	out = append(out, pl.ring[:pl.next]...)
	return out
}

// addTrack registers one port's tracks and returns its index.
func (pl *Pipeline) addTrack(label string, queues int) int32 {
	pl.tracks = append(pl.tracks, pipeTrack{label: label, queues: queues})
	return int32(len(pl.tracks) - 1)
}

// AttachPort records a fabric port's pipeline under label: a "queued"
// span per transmitted packet (admission to scheduler pick), a "wire"
// span for its serialization time, and mark/drop instants from the
// verdict stream.
func (pl *Pipeline) AttachPort(label string, pt *fabric.Port) {
	pt.Observe(&pipePort{pl: pl, tr: pl.addTrack(label, pt.NumQueues()), rate: pt.Rate()})
}

// pipePort is the pipeline recorder's observer on one port track.
type pipePort struct {
	pl   *Pipeline
	tr   int32
	rate fabric.Rate
}

func (pp *pipePort) Enqueue(sim.Time, int, *pkt.Packet) {}

func (pp *pipePort) Transmit(now sim.Time, qi int, p *pkt.Packet) {
	pp.pl.record(pipeEvent{track: pp.tr, queue: int32(qi), kind: pipeQueued,
		start: p.EnqueuedAt, dur: now - p.EnqueuedAt,
		flow: p.Flow, seq: p.Seq, size: int32(p.Size)})
	pp.pl.record(pipeEvent{track: pp.tr, queue: int32(qi), kind: pipeWire,
		start: now, dur: pp.rate.Serialize(p.Size),
		flow: p.Flow, seq: p.Seq, size: int32(p.Size)})
}

// Verdict turns a decisive verdict into a mark or drop instant.
// Threshold crossings that could not mark (ECNIncapable) are ledger
// material, not timeline instants.
func (pp *pipePort) Verdict(now sim.Time, qi int, p *pkt.Packet, v *core.Verdict) {
	kind := pipeMark
	switch {
	case v.Dropped:
		kind = pipeDrop
	case !v.Marked:
		return
	}
	pp.pl.record(pipeEvent{track: pp.tr, queue: int32(qi), kind: kind,
		reason: v.Reason, start: now,
		flow: p.Flow, seq: p.Seq, size: int32(p.Size)})
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
	for ti, tr := range pl.tracks {
		pid := ti + 1
		doc.TraceEvents = append(doc.TraceEvents, perfettoEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: &perfettoArgs{Name: tr.label},
		})
		doc.TraceEvents = append(doc.TraceEvents, perfettoEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: 0,
			Args: &perfettoArgs{Name: "wire"},
		})
		for qi := 0; qi < tr.queues; qi++ {
			doc.TraceEvents = append(doc.TraceEvents, perfettoEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: qi + 1,
				Args: &perfettoArgs{Name: fmt.Sprintf("q%d", qi)},
			})
		}
	}
	for _, e := range pl.events() {
		pid := int(e.track) + 1
		ev := perfettoEvent{Pid: pid, Ts: usec(e.start)}
		switch e.kind {
		case pipeQueued, pipeMark, pipeDrop:
			ev.Tid = int(e.queue) + 1
		case pipeWire:
			ev.Tid = 0
		}
		switch e.kind {
		case pipeQueued:
			ev.Name, ev.Ph = "queued", "X"
		case pipeWire:
			ev.Name, ev.Ph = "wire", "X"
		case pipeMark:
			ev.Name, ev.Ph, ev.S = core.EventMark.String(), "i", "t"
		case pipeDrop:
			ev.Name, ev.Ph, ev.S = core.EventDrop.String(), "i", "t"
		}
		if ev.Ph == "X" {
			d := usec(e.dur)
			ev.Dur = &d
		}
		args := &perfettoArgs{Flow: int32(e.flow), Seq: e.seq, Size: e.size}
		if e.kind == pipeMark || e.kind == pipeDrop {
			args.Reason = e.reason.String()
		}
		ev.Args = args
		doc.TraceEvents = append(doc.TraceEvents, ev)
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(doc); err != nil {
		return err
	}
	return bw.Flush()
}

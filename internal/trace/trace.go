// Package trace holds the packet-event sinks that explain a run packet by
// packet: the Tracer (transmissions, CE marks, drops), the decision Ledger
// (every decisive verdict with the inputs its rule consulted) and the
// Perfetto Pipeline (per-packet queue and wire spans). Each attaches one
// observer per port, keeps exact counters that never evict, and retains
// recent events in a bounded ring of its own capacity. Every ring stores
// one pointer-free record naming its port by index into the sink's port
// table, so recording allocates nothing and the garbage collector never
// scans a ring; labels are looked up only by the exports and Events views.
package trace

import (
	"fmt"

	"tcn/internal/core"
	"tcn/internal/fabric"
	"tcn/internal/pkt"
	"tcn/internal/sim"
)

// Kind classifies an event. It is an alias of core.EventKind, the single
// source of truth for the "tx"/"mark"/"drop" naming shared with the
// decision ledger, Perfetto instants, and flight-recorder spans.
type Kind = core.EventKind

// Event kinds, re-exported under their traditional trace names.
const (
	// Transmit is a packet leaving a port onto its link.
	Transmit = core.EventTx
	// Mark is a transmit whose packet carried CE.
	Mark = core.EventMark
	// Drop is a packet rejected at admission.
	Drop = core.EventDrop
)

// Event is the labelled view of one recorded occurrence. Its fields, in
// order, are one line of the tracer's JSONL export.
type Event struct {
	At    sim.Time `json:"at_ns"`
	Kind  Kind     `json:"kind"`
	Where string   `json:"where"` // port label
	Queue int      `json:"queue"`

	Flow pkt.FlowID `json:"flow"`
	Seq  int64      `json:"seq"`
	Size int        `json:"size"`
	DSCP uint8      `json:"dscp"`
	ECN  pkt.ECN    `json:"ecn"`
}

// String renders one line suitable for logs.
func (e Event) String() string {
	return fmt.Sprintf("%v %-4s %s q%d flow=%d seq=%d size=%d dscp=%d %s",
		e.At, e.Kind, e.Where, e.Queue, e.Flow, e.Seq, e.Size, e.DSCP, e.ECN)
}

// Tracer accumulates events in a ring buffer of fixed capacity; when full,
// the oldest events are overwritten. Counters are exact regardless of
// eviction.
type Tracer struct {
	ring   ring[record]
	ports  portTable
	counts [core.NumEventKinds]int64
}

// New returns a tracer holding up to capacity events.
func New(capacity int) *Tracer {
	return &Tracer{ring: newRing[record](capacity)}
}

// record adds one event.
func (t *Tracer) record(r record) {
	t.counts[r.kind]++
	t.ring.push(r)
}

// Events returns the retained events in chronological order.
func (t *Tracer) Events() []Event { return ordered(&t.ring, t.ports.event) }

// Count returns how many events of a kind were recorded (including
// evicted ones).
func (t *Tracer) Count(k Kind) int64 { return t.counts[k] }

// AttachPort records a port's transmissions and drops under label.
// CE-marked transmissions are recorded as Mark events, others as
// Transmit.
func (t *Tracer) AttachPort(label string, port *fabric.Port) { attach(t, &t.ports, label, port) }

func (t *Tracer) verdict(now sim.Time, port int32, qi int, p *pkt.Packet, v *core.Verdict) {
	if v.Dropped {
		t.record(newRecord(now, Drop, port, qi, p))
	}
}

func (t *Tracer) transmit(now sim.Time, port int32, qi int, p *pkt.Packet) {
	kind := Transmit
	if p.ECN == pkt.CE {
		kind = Mark
	}
	t.record(newRecord(now, kind, port, qi, p))
}

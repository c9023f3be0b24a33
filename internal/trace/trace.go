// Package trace records per-packet events (transmissions, CE marks,
// drops) from fabric ports into a bounded ring buffer, for debugging
// simulations and asserting packet-level behaviour in tests without
// accumulating unbounded state on long runs.
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

// Event is one recorded occurrence. The packet is summarized by value so
// the trace stays valid after the packet moves on.
type Event struct {
	At    sim.Time
	Kind  Kind
	Where string // port label
	Queue int

	Flow pkt.FlowID
	Seq  int64
	Size int
	DSCP uint8
	ECN  pkt.ECN
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
	// Filter, if set, drops events for which it returns false before
	// they reach the ring (counters are not incremented either).
	Filter func(Event) bool

	ring   []Event
	next   int
	filled bool
	counts [core.NumEventKinds]int64
}

// New returns a tracer holding up to capacity events.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		panic(fmt.Sprintf("trace: capacity %d must be positive", capacity))
	}
	return &Tracer{ring: make([]Event, 0, capacity)}
}

// Record adds one event.
func (t *Tracer) Record(e Event) {
	if t.Filter != nil && !t.Filter(e) {
		return
	}
	t.counts[e.Kind]++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e) //tcnlint:hotpath capacity-guarded; the ring never reallocates
		return
	}
	t.ring[t.next] = e
	t.next = (t.next + 1) % cap(t.ring)
	t.filled = true
}

// Events returns the retained events in chronological order.
func (t *Tracer) Events() []Event {
	if !t.filled {
		out := make([]Event, len(t.ring))
		copy(out, t.ring)
		return out
	}
	out := make([]Event, 0, cap(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Count returns how many events of a kind were recorded (including
// evicted ones).
func (t *Tracer) Count(k Kind) int64 { return t.counts[k] }

// summarize converts a live packet into an event skeleton.
func summarize(now sim.Time, kind Kind, where string, qi int, p *pkt.Packet) Event {
	return Event{
		At: now, Kind: kind, Where: where, Queue: qi,
		Flow: p.Flow, Seq: p.Seq, Size: p.Size, DSCP: p.DSCP, ECN: p.ECN,
	}
}

// AttachPort records a port's transmissions and drops under label.
// CE-marked transmissions are recorded as Mark events, others as
// Transmit.
func (t *Tracer) AttachPort(label string, port *fabric.Port) {
	port.Observe(&portTrace{t: t, label: label})
}

// portTrace is the tracer's observer on one labelled port.
type portTrace struct {
	t     *Tracer
	label string
}

func (pt *portTrace) Enqueue(sim.Time, int, *pkt.Packet) {}

func (pt *portTrace) Verdict(now sim.Time, qi int, p *pkt.Packet, v *core.Verdict) {
	if v.Dropped {
		pt.t.Record(summarize(now, Drop, pt.label, qi, p))
	}
}

func (pt *portTrace) Transmit(now sim.Time, qi int, p *pkt.Packet) {
	kind := Transmit
	if p.ECN == pkt.CE {
		kind = Mark
	}
	pt.t.Record(summarize(now, kind, pt.label, qi, p))
}

package trace

import (
	"tcn/internal/core"
	"tcn/internal/fabric"
	"tcn/internal/pkt"
	"tcn/internal/sim"
)

// record is one packet event as every sink stores it in its ring: 48
// bytes and no pointers, so a full ring costs the garbage collector
// nothing to scan. The port is an index into the sink's portTable; labels
// are looked up only when an export or Events builds a labelled view.
type record struct {
	at     sim.Time // event time; a span's start
	dur    sim.Time // a Perfetto span's length; 0 otherwise
	seq    int64
	flow   pkt.FlowID
	size   int32
	port   int32
	queue  int32
	kind   Kind
	dscp   uint8
	ecn    pkt.ECN
	reason core.Reason // the pipeline's mark/drop instants and the ledger
}

// The Perfetto pipeline's two span kinds follow the packet-event kinds.
const (
	queuedSpan = Kind(core.NumEventKinds) + iota // admission → scheduler pick, on the queue track
	wireSpan                                     // serialization, on the wire track
)

// newRecord summarizes a live packet by value, so the record stays valid
// after the packet moves on.
func newRecord(now sim.Time, kind Kind, port int32, qi int, p *pkt.Packet) record {
	return record{at: now, kind: kind, port: port, queue: int32(qi),
		flow: p.Flow, seq: p.Seq, size: int32(p.Size), dscp: p.DSCP, ecn: p.ECN}
}

// portTable is a sink's attached ports in attach order. Ports attached
// under one label share an interned label index, so the ledger can merge
// their counters while Perfetto keeps one process per attach.
type portTable struct {
	ports  []portEntry
	labels []string
	ids    map[string]int32
}

// portEntry is one attached port.
type portEntry struct {
	label  int32 // index into portTable.labels
	queues int
	rate   fabric.Rate
}

// add registers one port and returns its index.
func (t *portTable) add(label string, queues int, rate fabric.Rate) int32 {
	id, ok := t.ids[label]
	if !ok {
		if t.ids == nil {
			t.ids = map[string]int32{}
		}
		id = int32(len(t.labels))
		t.ids[label] = id
		t.labels = append(t.labels, label)
	}
	t.ports = append(t.ports, portEntry{label: id, queues: queues, rate: rate})
	return int32(len(t.ports) - 1)
}

// event builds the labelled view of a record.
func (t *portTable) event(r *record) Event {
	return Event{At: r.at, Kind: r.kind, Where: t.labels[t.ports[r.port].label], Queue: int(r.queue),
		Flow: r.flow, Seq: r.seq, Size: int(r.size), DSCP: r.dscp, ECN: r.ecn}
}

// sink is what a sink records from its ports' event streams.
type sink interface {
	verdict(now sim.Time, port int32, qi int, p *pkt.Packet, v *core.Verdict)
	transmit(now sim.Time, port int32, qi int, p *pkt.Packet)
}

// observer is every sink's fabric.Observer on one attached port: it hands
// the port's events to the sink with the port's table index.
type observer struct {
	s    sink
	port int32
}

func (o *observer) Enqueue(sim.Time, int, *pkt.Packet) {}

func (o *observer) Verdict(now sim.Time, qi int, p *pkt.Packet, v *core.Verdict) {
	o.s.verdict(now, o.port, qi, p, v)
}

func (o *observer) Transmit(now sim.Time, qi int, p *pkt.Packet) {
	o.s.transmit(now, o.port, qi, p)
}

// attach adds p to the sink's table under label and subscribes the sink
// to p's events.
func attach(s sink, t *portTable, label string, p *fabric.Port) {
	p.Observe(&observer{s: s, port: t.add(label, p.NumQueues(), p.Rate())})
}

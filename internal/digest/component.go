package digest

// Component names the kind of simulator state one registered Digestable
// captures. The diff engine reports divergences as (epoch, component,
// label), so every state-bearing layer gets its own kind: a divergence in
// "rand" (draw counter) means the two runs consumed randomness
// differently, one in "port" means a switch egress port's buffer,
// scheduler credit, or marker counters went separate ways, and so on.
//
// The tcnlint exhaustive analyzer treats this package as an enum package:
// switches over Component must cover every exported constant (or carry an
// explicit default), so a newly added component kind cannot be silently
// skipped by String, ParseComponent, or any consumer.
type Component uint8

// The component kinds, in pipeline order.
const (
	// ComponentEngine is the event engine: clock, heap shape, sequence
	// and freelist generation counters.
	ComponentEngine Component = iota
	// ComponentRand is a seeded random stream: its seed and draw count.
	ComponentRand
	// ComponentPort is a fabric egress port: link/busy state, per-queue
	// transmit tallies, buffer, scheduler credit, marker counters.
	ComponentPort
	// ComponentQdisc is a software qdisc: a shaped fabric port, digested
	// as ComponentPort plus its waiting flag and token bucket.
	ComponentQdisc
	// ComponentBuffer is a standalone shared egress buffer.
	ComponentBuffer
	// ComponentSched is a standalone scheduler's credit state.
	ComponentSched
	// ComponentMarker is a standalone marker's verdict counters.
	ComponentMarker
	// ComponentLedger is the decision ledger's exact mark/drop/reason
	// totals.
	ComponentLedger
	// ComponentTDigest is a t-digest sketch (FCT collector centroids).
	ComponentTDigest

	numComponents // sentinel for sized arrays; never digested
)

// String returns the wire name used in the fingerprint JSONL.
func (c Component) String() string {
	switch c {
	case ComponentEngine:
		return "engine"
	case ComponentRand:
		return "rand"
	case ComponentPort:
		return "port"
	case ComponentQdisc:
		return "qdisc"
	case ComponentBuffer:
		return "buffer"
	case ComponentSched:
		return "sched"
	case ComponentMarker:
		return "marker"
	case ComponentLedger:
		return "ledger"
	case ComponentTDigest:
		return "tdigest"
	}
	return "component?"
}

// ParseComponent inverts String for the timeline reader.
func ParseComponent(s string) (Component, bool) {
	for c := Component(0); c < numComponents; c++ {
		if c.String() == s {
			return c, true
		}
	}
	return 0, false
}

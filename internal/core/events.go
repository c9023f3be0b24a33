package core

import "fmt"

// EventKind classifies a packet-level occurrence. It is the single source
// of truth for the "tx"/"mark"/"drop" naming shared by every export
// surface (trace JSONL, the decision ledger, Perfetto instants, flight
// spans); internal/trace aliases it as trace.Kind.
type EventKind uint8

// Packet event kinds.
const (
	// EventTx is a packet leaving a port onto its link.
	EventTx EventKind = iota
	// EventMark is a transmit whose packet carried CE.
	EventMark
	// EventDrop is a packet rejected at admission.
	EventDrop

	numEventKinds // sentinel for sized arrays
)

// NumEventKinds is the number of defined kinds, for exact counter arrays.
const NumEventKinds = int(numEventKinds)

func (k EventKind) String() string {
	switch k {
	case EventTx:
		return "tx"
	case EventMark:
		return "mark"
	case EventDrop:
		return "drop"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// MarshalText renders the kind by its String name, so JSON exports carry
// "mark" rather than 1.
func (k EventKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Package pkt defines the packet model shared by every layer of the
// simulator: ECN codepoints, DSCP-based service classes, and the transport
// header fields the TCP models need.
//
// A single flat struct (rather than layered headers) keeps the hot enqueue/
// dequeue path allocation-free and cache-friendly; the fields correspond
// one-to-one to the IP/TCP header bits the paper's mechanisms read or write.
package pkt

import (
	"fmt"

	"tcn/internal/sim"
)

// ECN is the two-bit ECN field of the IP header (RFC 3168).
type ECN uint8

// ECN codepoints.
const (
	NotECT ECN = iota // not ECN-capable transport
	ECT1              // ECN-capable transport, codepoint 1
	ECT0              // ECN-capable transport, codepoint 0
	CE                // congestion experienced
)

// String returns the RFC 3168 name of the codepoint.
func (e ECN) String() string {
	switch e {
	case NotECT:
		return "Not-ECT"
	case ECT0:
		return "ECT(0)"
	case ECT1:
		return "ECT(1)"
	case CE:
		return "CE"
	default:
		return fmt.Sprintf("ECN(%d)", uint8(e))
	}
}

// MarshalText renders the codepoint by its String name, so JSON exports
// carry "CE" rather than 3.
func (e ECN) MarshalText() ([]byte, error) { return []byte(e.String()), nil }

// ECNCapable reports whether a marker is allowed to set CE on this
// codepoint. CE packets stay CE.
func (e ECN) ECNCapable() bool { return e == ECT0 || e == ECT1 || e == CE }

// Kind distinguishes the packet types the transports exchange.
type Kind uint8

// Packet kinds.
const (
	Data Kind = iota // TCP data segment
	Ack              // pure acknowledgment
	Ping             // latency probe request
	Pong             // latency probe reply
)

func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case Ack:
		return "ack"
	case Ping:
		return "ping"
	case Pong:
		return "pong"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Header and frame size constants, matching the paper's MTU-1500 Ethernet
// setup.
const (
	MTU        = 1500 // bytes, IP MTU
	HeaderSize = 40   // bytes, IP + TCP headers without options
	MSS        = MTU - HeaderSize
	AckSize    = HeaderSize // pure ACKs are header-only
)

// FlowID identifies a transport flow. IDs are dense small integers assigned
// by the experiment, which lets per-flow state live in slices.
type FlowID int32

// Packet is one simulated frame. Packets are allocated by the sending
// transport and owned by exactly one queue or link at a time; models must
// not retain a packet after handing it downstream.
type Packet struct {
	Flow FlowID
	Src  int // host id
	Dst  int // host id

	Kind Kind
	Size int // wire size in bytes, including HeaderSize

	// Transport header fields.
	Seq    int64    // first payload byte offset (Data) or echoed probe id (Ping/Pong)
	Len    int      // payload bytes carried
	Ack    int64    // cumulative ACK: next byte expected (Ack kind)
	ECE    bool     // ECN-echo flag on ACKs
	DupACK bool     // receiver saw out-of-order data (diagnostic)
	Echo   sim.Time // SentAt of the segment this ACK responds to (RTT sampling)

	// IP header fields.
	ECN  ECN
	DSCP uint8 // service class; classifiers map DSCP -> queue index

	// Metadata attached by the network (the paper's "enqueue-time
	// timestamp" from §4.2 is EnqueuedAt).
	SentAt     sim.Time // leave time at the sending transport
	EnqueuedAt sim.Time // set on every queue admission, read at dequeue
	Hops       int      // switch hops traversed, for sanity checks
	SchedTag   float64  // per-packet scheduler tag (WFQ finish time, PIFO rank)

	// pool is the Pool that issued the packet, set by New; Release
	// returns the packet there.
	pool *Pool
}

// Sojourn returns the time the packet has spent in its current queue.
func (p *Packet) Sojourn(now sim.Time) sim.Time { return now - p.EnqueuedAt }

// Mark sets CE if the packet belongs to an ECN-capable transport and
// reports whether the mark was applied.
func (p *Packet) Mark() bool {
	if !p.ECN.ECNCapable() {
		return false
	}
	p.ECN = CE
	return true
}

// String renders a compact single-line description for traces and tests.
func (p *Packet) String() string {
	return fmt.Sprintf("%s flow=%d %d->%d seq=%d len=%d size=%d dscp=%d ecn=%s",
		p.Kind, p.Flow, p.Src, p.Dst, p.Seq, p.Len, p.Size, p.DSCP, p.ECN)
}

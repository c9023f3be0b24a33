package transport

import (
	"tcn/internal/pkt"
)

// receiver is the per-flow receive side: cumulative ACK with out-of-order
// buffering, per-packet ACKs, and per-packet ECN echo (every ACK reports
// whether the segment that triggered it was CE-marked, which gives DCTCP
// an exact marked-byte fraction — the behaviour of the DCTCP receiver
// state machine at its accuracy limit).
type receiver struct {
	stack *Stack
	flow  *Flow

	rcvNxt   int64
	held     heldSegs // out-of-order segments beyond rcvNxt
	finished bool
	counting bool // datagram mode: count every payload byte, never ACK

	// streaming mode (persistent connections): message boundaries
	// replace whole-flow completion.
	streaming  bool
	boundaries []*Message
}

func newReceiver(s *Stack, f *Flow) *receiver {
	return &receiver{stack: s, flow: f}
}

// newCountingReceiver returns a receiver for unreliable streams (CBR):
// every arriving payload byte counts as delivered and no ACKs are sent.
func newCountingReceiver(s *Stack, f *Flow) *receiver {
	r := newReceiver(s, f)
	r.counting = true
	return r
}

// onData processes an arriving data segment and responds with an ACK.
func (r *receiver) onData(p *pkt.Packet) {
	if r.counting {
		if r.stack.OnDeliver != nil {
			r.stack.OnDeliver(r.stack.eng.Now(), r.flow, p.Len)
		}
		return
	}
	ce := p.ECN == pkt.CE
	end := p.Seq + int64(p.Len)
	dup := false

	switch {
	case p.Seq == r.rcvNxt:
		old := r.rcvNxt
		r.rcvNxt = r.held.absorb(end)
		if r.stack.OnDeliver != nil {
			r.stack.OnDeliver(r.stack.eng.Now(), r.flow, int(r.rcvNxt-old))
		}
	case p.Seq > r.rcvNxt:
		r.held.hold(p.Seq, p.Len)
		dup = true
	default:
		// Stale retransmission below rcvNxt.
		dup = true
	}

	r.sendAck(p, ce, dup)

	if r.streaming {
		for len(r.boundaries) > 0 {
			m := r.boundaries[0]
			if r.rcvNxt < m.startOff+m.Size {
				break
			}
			r.boundaries = r.boundaries[1:]
			m.conn.finishMessage(m)
		}
		return
	}
	if !r.finished && r.rcvNxt >= r.flow.Size {
		r.finished = true
		r.held = heldSegs{} // every held key is below rcvNxt now
		r.stack.finish(r.flow)
	}
}

// sendAck emits a pure ACK for the current cumulative state.
func (r *receiver) sendAck(trigger *pkt.Packet, ce, dup bool) {
	dscp := r.flow.Class
	if f := r.stack.cfg.AckDSCP; f != nil {
		dscp = f(r.flow)
	}
	ack := r.stack.pool.Get()
	*ack = pkt.Packet{
		Flow:   r.flow.ID,
		Src:    r.flow.Dst,
		Dst:    r.flow.Src,
		Kind:   pkt.Ack,
		Ack:    r.rcvNxt,
		ECE:    ce,
		DupACK: dup,
		Echo:   trigger.SentAt,
		Size:   pkt.AckSize,
		DSCP:   dscp,
		SentAt: r.stack.eng.Now(),
	}
	r.stack.send(r.flow.Dst, ack)
}

package transport

import (
	"tcn/internal/pkt"
	"tcn/internal/sim"
)

// Sender is the per-flow TCP sending state machine: NewReno slow start,
// congestion avoidance, fast retransmit/recovery, RTO with exponential
// backoff and a floor — with the ECN reaction selected by Config.CC
// layered on top (DCTCP fractional cuts or ECN* half cuts, both gated to
// once per window of data, RFC 3168-style).
type Sender struct {
	stack *Stack
	flow  *Flow
	mss   int64

	// Window state, in segments (cwnd fractional for CA growth).
	cwnd     float64
	ssthresh float64

	// Sequence state, in bytes.
	sndUna int64
	sndNxt int64

	// Loss recovery.
	dupAcks    int
	inRecovery bool
	recover    int64 // highest byte sent when recovery began

	// ECN state.
	alpha     float64 // DCTCP marked-fraction EWMA
	ackedWin  int64   // bytes acked in the current alpha window
	markedWin int64   // of which carried ECN-echo
	alphaEnd  int64   // alpha window closes when sndUna passes this
	cwrEnd    int64   // at most one window cut until sndUna passes this

	// RTT estimation and retransmission timer.
	srtt, rttvar sim.Time
	backoff      int
	rtoTimer     sim.EventRef
	rtoFn        func() // stored onRTO callback, so arming allocates nothing

	done bool // all bytes acked

	// msg is the message currently in flight on a persistent
	// connection, for timeout attribution; nil for plain flows.
	msg *Message
	// lastTx is when the sender last transmitted, for slow-start
	// restart after idleness.
	lastTx sim.Time

	// Diagnostics.
	SentBytes       int64 // payload bytes transmitted, incl. retransmissions
	RetransmitBytes int64 // payload bytes retransmitted
	FastRetransmits int   // fast-retransmit events
	PartialAckRetx  int   // NewReno partial-ack retransmissions
	TimeoutRetx     int   // go-back-N retransmission rounds
}

func newSender(s *Stack, f *Flow) *Sender {
	snd := &Sender{
		stack:    s,
		flow:     f,
		mss:      int64(s.cfg.MSS),
		cwnd:     float64(s.cfg.InitWindow),
		ssthresh: float64(s.cfg.MaxWindow),
	}
	snd.rtoFn = snd.onRTO
	return snd
}

// Flow returns the flow this sender drives.
func (snd *Sender) Flow() *Flow { return snd.flow }

// Cwnd returns the current congestion window in segments.
func (snd *Sender) Cwnd() float64 { return snd.cwnd }

// Alpha returns the DCTCP marked-fraction estimate.
func (snd *Sender) Alpha() float64 { return snd.alpha }

// Done reports whether every byte has been cumulatively acknowledged.
func (snd *Sender) Done() bool { return snd.done }

// window returns the effective window in bytes.
func (snd *Sender) window() int64 {
	w := snd.cwnd
	if mx := float64(snd.stack.cfg.MaxWindow); w > mx {
		w = mx
	}
	if w < 1 {
		w = 1
	}
	return int64(w) * snd.mss
}

// sendMore transmits as many new segments as the window allows. It only
// arms the retransmission timer if none is pending: restarting it here
// would push the deadline back on every duplicate ACK, letting a lost
// retransmission stall recovery forever (RFC 6298 restarts the timer only
// when new data is cumulatively acknowledged).
func (snd *Sender) sendMore() {
	for snd.sndNxt < snd.flow.Size && snd.sndNxt-snd.sndUna < snd.window() {
		snd.transmit(snd.sndNxt)
		snd.sndNxt += snd.segLen(snd.sndNxt)
	}
	if !snd.rtoTimer.Pending() {
		snd.armRTO()
	}
}

// segLen returns the payload length of the segment at offset.
func (snd *Sender) segLen(offset int64) int64 {
	n := snd.flow.Size - offset
	if n > snd.mss {
		n = snd.mss
	}
	return n
}

// transmit emits the segment at offset (new data or retransmission).
func (snd *Sender) transmit(offset int64) {
	n := snd.segLen(offset)
	snd.SentBytes += n
	if offset < snd.sndNxt {
		snd.RetransmitBytes += n
	}
	snd.lastTx = snd.stack.eng.Now()
	p := snd.stack.pool.New(pkt.Packet{
		Flow:   snd.flow.ID,
		Src:    snd.flow.Src,
		Dst:    snd.flow.Dst,
		Kind:   pkt.Data,
		Seq:    offset,
		Len:    int(n),
		Size:   int(n) + pkt.HeaderSize,
		ECN:    snd.stack.ecnCodepoint(),
		DSCP:   snd.flow.Tag(offset),
		SentAt: snd.stack.eng.Now(),
	})
	snd.stack.send(snd.flow.Src, p)
}

// onAck processes one acknowledgment.
func (snd *Sender) onAck(p *pkt.Packet) {
	if snd.done {
		return
	}
	if p.ECE {
		snd.onECE()
	}
	switch {
	case p.Ack > snd.sndUna:
		snd.onNewAck(p)
	case p.Ack == snd.sndUna && snd.sndNxt > snd.sndUna:
		snd.onDupAck()
	}
}

// onECE applies the CC-specific window cut, at most once per window of
// data (the RFC 3168 CWR convention the paper's transports follow).
func (snd *Sender) onECE() {
	if snd.stack.cfg.CC == Reno {
		return
	}
	if snd.sndUna < snd.cwrEnd || snd.inRecovery {
		return
	}
	snd.cwrEnd = snd.sndNxt
	switch snd.stack.cfg.CC {
	case DCTCP:
		snd.cwnd *= 1 - snd.alpha/2
	case ECNStar:
		snd.cwnd /= 2
	}
	if snd.cwnd < 1 {
		snd.cwnd = 1
	}
	snd.ssthresh = snd.cwnd
}

// onNewAck handles an ACK that advances sndUna.
func (snd *Sender) onNewAck(p *pkt.Packet) {
	newly := p.Ack - snd.sndUna
	snd.ackedWin += newly
	if p.ECE {
		snd.markedWin += newly
	}
	if p.Echo > 0 {
		snd.sampleRTT(snd.stack.eng.Now() - p.Echo)
	}
	snd.backoff = 0
	snd.dupAcks = 0
	snd.sndUna = p.Ack

	if snd.inRecovery {
		if snd.sndUna >= snd.recover {
			// Full recovery: deflate to ssthresh.
			snd.inRecovery = false
			snd.cwnd = snd.ssthresh
		} else {
			// NewReno partial ACK: the next hole is lost too —
			// retransmit it immediately and deflate by the
			// acked amount.
			snd.PartialAckRetx++
			snd.transmit(snd.sndUna)
			snd.cwnd -= float64(newly) / float64(snd.mss)
			if snd.cwnd < 1 {
				snd.cwnd = 1
			}
			snd.cwnd++
		}
	} else {
		segs := float64(newly) / float64(snd.mss)
		if snd.cwnd < snd.ssthresh {
			snd.cwnd += segs // slow start
		} else {
			snd.cwnd += segs / snd.cwnd // congestion avoidance
		}
	}

	// Close the DCTCP alpha window once per RTT of data.
	if snd.sndUna >= snd.alphaEnd {
		if snd.ackedWin > 0 {
			f := float64(snd.markedWin) / float64(snd.ackedWin)
			g := snd.stack.cfg.DCTCPg
			snd.alpha = (1-g)*snd.alpha + g*f
		}
		snd.ackedWin, snd.markedWin = 0, 0
		snd.alphaEnd = snd.sndNxt
	}

	if snd.sndUna >= snd.flow.Size {
		snd.done = true
		snd.stack.eng.Cancel(snd.rtoTimer)
		return
	}
	snd.armRTO() // progress was made: restart the timer
	snd.sendMore()
}

// onDupAck handles a duplicate ACK: three trigger fast retransmit, and
// further duplicates inflate the window during recovery.
func (snd *Sender) onDupAck() {
	snd.dupAcks++
	if snd.inRecovery {
		snd.cwnd++
		snd.sendMore()
		return
	}
	if snd.dupAcks == 3 {
		snd.ssthresh = snd.cwnd / 2
		if snd.ssthresh < 2 {
			snd.ssthresh = 2
		}
		snd.recover = snd.sndNxt
		snd.inRecovery = true
		snd.FastRetransmits++
		snd.transmit(snd.sndUna)
		snd.cwnd = snd.ssthresh + 3
		snd.armRTO()
	}
}

// sampleRTT feeds one RTT measurement into the SRTT/RTTVAR estimator
// (RFC 6298 gains).
func (snd *Sender) sampleRTT(rtt sim.Time) {
	if rtt <= 0 {
		return
	}
	if snd.srtt == 0 {
		snd.srtt = rtt
		snd.rttvar = rtt / 2
		return
	}
	d := snd.srtt - rtt
	if d < 0 {
		d = -d
	}
	snd.rttvar = (3*snd.rttvar + d) / 4
	snd.srtt = (7*snd.srtt + rtt) / 8
}

// rto returns the current timeout with backoff applied.
func (snd *Sender) rto() sim.Time {
	cfg := snd.stack.cfg
	t := cfg.RTOInit
	if snd.srtt > 0 {
		t = snd.srtt + 4*snd.rttvar
	}
	if t < cfg.RTOMin {
		t = cfg.RTOMin
	}
	for i := 0; i < snd.backoff && t < 8*sim.Second; i++ {
		t *= 2
	}
	return t
}

// armRTO (re)starts the retransmission timer while data is outstanding.
func (snd *Sender) armRTO() {
	snd.stack.eng.Cancel(snd.rtoTimer)
	if snd.sndUna >= snd.sndNxt || snd.done {
		return
	}
	snd.rtoTimer = snd.stack.eng.After(snd.rto(), snd.rtoFn)
}

// resume restarts transmission after new bytes were appended to the
// stream (persistent-connection mode). A connection idle for longer than
// its RTO undergoes slow-start restart (RFC 2861): the window collapses to
// the initial window so a stale cwnd cannot burst into changed congestion
// conditions.
func (snd *Sender) resume(now sim.Time) {
	if snd.done && now-snd.lastTx > snd.rto() {
		if iw := float64(snd.stack.cfg.InitWindow); snd.cwnd > iw {
			snd.cwnd = iw
		}
	}
	snd.done = false
	snd.sendMore()
}

// onRTO handles a retransmission timeout: collapse to one segment and
// resume from the last cumulative ACK (go-back-N).
func (snd *Sender) onRTO() {
	if snd.done {
		return
	}
	snd.flow.Timeouts++
	snd.stack.Timeouts++
	if snd.msg != nil {
		snd.msg.Timeouts++
	}
	flight := float64(snd.sndNxt-snd.sndUna) / float64(snd.mss)
	snd.ssthresh = flight / 2
	if snd.ssthresh < 2 {
		snd.ssthresh = 2
	}
	snd.cwnd = 1
	snd.dupAcks = 0
	snd.inRecovery = false
	snd.sndNxt = snd.sndUna
	snd.backoff++
	snd.TimeoutRetx++
	snd.sendMore()
}

package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"tcn/internal/core"
	"tcn/internal/digest"
	"tcn/internal/fabric"
	"tcn/internal/obs"
	"tcn/internal/pkt"
	"tcn/internal/sim"
)

// VerdictEvent is the labelled view of one retained marking/dropping
// decision: the packet event (Kind says what became of the packet) plus
// the full verdict (rule, stage, and the inputs the rule consulted).
type VerdictEvent struct {
	Event
	V core.Verdict
}

// ledgerEntry is one ledger ring slot: the shared record plus the verdict,
// copied by value so the entry stays valid after the scratch verdict is
// reused. Pointer-free, like the record.
type ledgerEntry struct {
	record
	v core.Verdict
}

// ledgerCell is one exact (label, queue, reason) counter. The obs counter
// is created on the cell's first verdict, so steady-state recording
// allocates nothing.
type ledgerCell struct {
	n int64
	c *obs.Counter // nil when the ledger has no registry
}

// Ledger retains recent verdicts in a bounded ring and keeps exact
// per-(label, queue, reason) counters regardless of eviction — the
// decision-side mirror of Tracer's counts; ports attached under one label
// share counters. On a single switch the marked/dropped totals equal the
// tracer's mark/drop counts (multi-hop fabrics transmit a CE-marked packet
// once per hop, so there the tracer counts more).
type Ledger struct {
	ring  ring[ledgerEntry]
	ports portTable

	// cells[label][queue*core.NumReasons+reason] is the exact counter of
	// one cell; a label's slice grows on the first verdict past its end.
	cells [][]ledgerCell
	reg   *obs.Registry

	marked  int64
	dropped int64

	// reasons totals every verdict by reason, for ReasonTotal and the run
	// fingerprint.
	reasons [core.NumReasons]int64
}

// NewLedger returns a ledger retaining up to capacity verdicts.
func NewLedger(capacity int) *Ledger {
	return &Ledger{ring: newRing[ledgerEntry](capacity)}
}

// Instrument mirrors every per-(port, queue, reason) count into r as
// counters named "<where>.q<i>.verdicts.<Reason>". Call before attaching
// ports; cells populated afterwards pick the registry up lazily.
func (l *Ledger) Instrument(r *obs.Registry) { l.reg = r }

// cell resolves the counter of a (label, queue, reason) cell, growing the
// label's cells on first use.
func (l *Ledger) cell(label int32, qi int, r core.Reason) *ledgerCell {
	for int(label) >= len(l.cells) {
		l.cells = append(l.cells, nil) //tcnlint:hotpath grows once per label
	}
	i := qi*core.NumReasons + int(r)
	if cs := l.cells[label]; i >= len(cs) {
		l.cells[label] = append(cs, make([]ledgerCell, i+1-len(cs))...) //tcnlint:hotpath grows once per (label, queue)
	}
	return &l.cells[label][i]
}

func (l *Ledger) transmit(sim.Time, int32, int, *pkt.Packet) {}

// verdict folds one decisive verdict into the ledger. The verdict is
// copied; the port may reuse it immediately.
func (l *Ledger) verdict(now sim.Time, port int32, qi int, p *pkt.Packet, v *core.Verdict) {
	label := l.ports.ports[port].label
	c := l.cell(label, qi, v.Reason)
	if c.n == 0 && l.reg != nil {
		//tcnlint:hotpath runs once per (label, queue, reason) cell, at its first verdict
		c.c = l.reg.Counter(fmt.Sprintf("%s.q%d.verdicts.%s", l.ports.labels[label], qi, v.Reason))
	}
	c.n++
	l.reasons[v.Reason]++
	if c.c != nil {
		c.c.Inc()
	}
	if v.Marked {
		l.marked++
	}
	if v.Dropped {
		l.dropped++
	}
	kind := Transmit
	switch {
	case v.Dropped:
		kind = Drop
	case v.Marked:
		kind = Mark
	}
	r := newRecord(now, kind, port, qi, p)
	r.reason = v.Reason
	l.ring.push(ledgerEntry{record: r, v: *v})
}

// Events returns the retained verdicts in chronological order.
func (l *Ledger) Events() []VerdictEvent {
	return ordered(&l.ring, func(e *ledgerEntry) VerdictEvent {
		return VerdictEvent{Event: l.ports.event(&e.record), V: e.v}
	})
}

// Count returns the exact number of verdicts recorded for a (port,
// queue, reason) cell, eviction notwithstanding.
func (l *Ledger) Count(where string, queue int, reason core.Reason) int64 {
	var n int64
	_ = l.eachCell(func(w string, q int, r core.Reason, c int64) error {
		if w == where && q == queue && r == reason {
			n = c
		}
		return nil
	})
	return n
}

// ReasonTotal sums a reason's count across all ports and queues.
func (l *Ledger) ReasonTotal(reason core.Reason) int64 { return l.reasons[reason] }

// Marked returns the exact number of verdicts that applied CE.
func (l *Ledger) Marked() int64 { return l.marked }

// Dropped returns the exact number of admission-drop verdicts.
func (l *Ledger) Dropped() int64 { return l.dropped }

// DigestState folds the ledger's exact decision totals into a run
// fingerprint: marked/dropped, the per-reason totals array, and the ring
// cursor. Retained events are not digested individually — the reason
// totals change on every verdict, so any divergence in decision history
// moves the digest at the epoch it happens.
func (l *Ledger) DigestState(h *digest.Hash) {
	h.WriteInt64(l.marked)
	h.WriteInt64(l.dropped)
	for _, n := range l.reasons {
		h.WriteInt64(n)
	}
	h.WriteInt(l.ring.next)
	h.WriteBool(l.ring.filled)
	h.WriteInt(len(l.ring.buf))
}

// eachCell calls fn on every populated cell in (label, queue, reason)
// order, so exports and reports are deterministic.
func (l *Ledger) eachCell(fn func(where string, queue int, reason core.Reason, n int64) error) error {
	wheres := slices.Clone(l.ports.labels)
	slices.Sort(wheres)
	for _, where := range wheres {
		label := l.ports.ids[where]
		if int(label) >= len(l.cells) {
			continue
		}
		for i, c := range l.cells[label] {
			if c.n == 0 {
				continue
			}
			if err := fn(where, i/core.NumReasons, core.Reason(i%core.NumReasons), c.n); err != nil {
				return err
			}
		}
	}
	return nil
}

// verdictJSON is the NDJSON wire form of a VerdictEvent. Field order is
// fixed by the struct, so exports are deterministic.
type verdictJSON struct {
	At      int64   `json:"at_ns"`
	Where   string  `json:"where"`
	Queue   int     `json:"queue"`
	Stage   string  `json:"stage"`
	Reason  string  `json:"reason"`
	Marked  bool    `json:"marked"`
	Dropped bool    `json:"dropped"`
	Flow    int32   `json:"flow"`
	Seq     int64   `json:"seq"`
	Size    int     `json:"size"`
	QBytes  int     `json:"queue_bytes"`
	PBytes  int     `json:"port_bytes"`
	Avg     float64 `json:"avg_bytes"`
	Sojourn int64   `json:"sojourn_ns"`
	KBytes  int     `json:"threshold_bytes"`
	KTime   int64   `json:"threshold_ns"`
	Prob    float64 `json:"prob"`
	Tokens  float64 `json:"tokens_bytes"`
}

// countJSON is one exact-counter line in the JSONL export.
type countJSON struct {
	Count  bool   `json:"count"`
	Where  string `json:"where"`
	Queue  int    `json:"queue"`
	Reason string `json:"reason"`
	N      int64  `json:"n"`
}

// WriteJSONL dumps the retained verdicts, oldest first, as newline-
// delimited JSON, followed by one exact-counter line per populated
// (port, queue, reason) cell in sorted order and a trailing summary
// line {"summary":true,"marked":N,"dropped":N,"retained":N}.
func (l *Ledger) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	events := l.Events()
	for _, e := range events {
		if err := enc.Encode(verdictJSON{
			At:      int64(e.At),
			Where:   e.Where,
			Queue:   e.Queue,
			Stage:   e.V.Stage.String(),
			Reason:  e.V.Reason.String(),
			Marked:  e.V.Marked,
			Dropped: e.V.Dropped,
			Flow:    int32(e.Flow),
			Seq:     e.Seq,
			Size:    e.Size,
			QBytes:  e.V.QueueBytes,
			PBytes:  e.V.PortBytes,
			Avg:     e.V.AvgBytes,
			Sojourn: int64(e.V.Sojourn),
			KBytes:  e.V.ThresholdBytes,
			KTime:   int64(e.V.ThresholdTime),
			Prob:    e.V.Prob,
			Tokens:  e.V.TokensBytes,
		}); err != nil {
			return err
		}
	}
	if err := l.eachCell(func(where string, queue int, reason core.Reason, n int64) error {
		return enc.Encode(countJSON{Count: true, Where: where, Queue: queue, Reason: reason.String(), N: n})
	}); err != nil {
		return err
	}
	summary := struct {
		Summary  bool  `json:"summary"`
		Marked   int64 `json:"marked"`
		Dropped  int64 `json:"dropped"`
		Retained int   `json:"retained"`
	}{true, l.marked, l.dropped, len(events)}
	if err := enc.Encode(summary); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteReport renders the verdict-breakdown report `tcnsim -explain`
// prints: the exact reason histogram per port and queue, plus marked/
// dropped totals. Deterministic (sorted cells).
func (l *Ledger) WriteReport(w io.Writer) error {
	if len(l.ring.buf) == 0 {
		_, err := fmt.Fprintln(w, "no decisive verdicts recorded")
		return err
	}
	last := ""
	if err := l.eachCell(func(where string, queue int, reason core.Reason, n int64) error {
		if where != last {
			if _, err := fmt.Fprintf(w, "%s:\n", where); err != nil {
				return err
			}
			last = where
		}
		_, err := fmt.Fprintf(w, "  q%-3d %-24s %12d\n", queue, reason, n)
		return err
	}); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "totals: marked=%d dropped=%d incapable=%d\n",
		l.marked, l.dropped, l.ReasonTotal(core.ReasonECNIncapable))
	return err
}

// AttachPort records a port's verdict stream under label.
func (l *Ledger) AttachPort(label string, pt *fabric.Port) { attach(l, &l.ports, label, pt) }

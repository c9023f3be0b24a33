package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"tcn/internal/core"
	"tcn/internal/digest"
	"tcn/internal/fabric"
	"tcn/internal/obs"
	"tcn/internal/pkt"
	"tcn/internal/sim"
)

// VerdictEvent is one retained marking/dropping decision: the packet's
// identity plus the full verdict (rule, stage, and the instantaneous
// inputs the rule consulted), copied by value so the record stays valid
// after the scratch verdict is reused.
type VerdictEvent struct {
	At    sim.Time
	Where string // port label
	Queue int

	Flow pkt.FlowID
	Seq  int64
	Size int

	V core.Verdict
}

// ledgerKey addresses one exact counter: a (port, queue, reason) cell.
type ledgerKey struct {
	where  string
	queue  int
	reason core.Reason
}

// ledgerCell is the mutable state behind one key. The obs counter is
// created once, on the cell's first verdict, so steady-state recording
// allocates nothing.
type ledgerCell struct {
	n int64
	c *obs.Counter // nil when the ledger has no registry
}

// Ledger retains recent verdicts in a bounded ring and keeps exact
// per-(port, queue, reason) counters regardless of eviction — the
// decision-side mirror of Tracer's transmission-side counts. Attach it to
// every port of a single-switch topology and the marked/dropped totals
// reconcile exactly with the tracer's mark/drop counters (multi-hop
// fabrics transmit a CE-marked packet once per hop, so there the tracer
// counts ≥ the ledger's decisions).
type Ledger struct {
	ring ring[VerdictEvent]

	cells map[ledgerKey]*ledgerCell
	reg   *obs.Registry

	marked  int64
	dropped int64

	// reasons totals every verdict by reason in a fixed-size array so the
	// run fingerprint can digest exact decision counts without ranging the
	// cells map (map order is nondeterministic; the array is not).
	reasons [core.NumReasons]int64
}

// NewLedger returns a ledger retaining up to capacity verdicts.
func NewLedger(capacity int) *Ledger {
	return &Ledger{
		ring:  newRing[VerdictEvent](capacity),
		cells: map[ledgerKey]*ledgerCell{},
	}
}

// Instrument mirrors every per-(port, queue, reason) count into r as
// counters named "<where>.q<i>.verdicts.<Reason>". Call before attaching
// ports; cells created afterwards pick the registry up lazily.
func (l *Ledger) Instrument(r *obs.Registry) { l.reg = r }

// cell resolves (and on first use creates) the counter cell for a key.
func (l *Ledger) cell(k ledgerKey) *ledgerCell {
	if c, ok := l.cells[k]; ok {
		return c
	}
	c := &ledgerCell{}
	if l.reg != nil {
		//tcnlint:hotpath cell creation runs once per (where, queue, reason) key; steady state hits the map above
		c.c = l.reg.Counter(fmt.Sprintf("%s.q%d.verdicts.%s", k.where, k.queue, k.reason))
	}
	l.cells[k] = c
	return c
}

// Record folds one decisive verdict into the ledger. The verdict is
// copied; the caller may reuse it immediately.
func (l *Ledger) Record(now sim.Time, where string, qi int, p *pkt.Packet, v *core.Verdict) {
	c := l.cell(ledgerKey{where: where, queue: qi, reason: v.Reason})
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
	l.ring.push(VerdictEvent{
		At: now, Where: where, Queue: qi,
		Flow: p.Flow, Seq: p.Seq, Size: p.Size,
		V: *v,
	})
}

// Events returns the retained verdicts in chronological order.
func (l *Ledger) Events() []VerdictEvent { return l.ring.ordered() }

// Count returns the exact number of verdicts recorded for a (port,
// queue, reason) cell, eviction notwithstanding.
func (l *Ledger) Count(where string, queue int, reason core.Reason) int64 {
	if c, ok := l.cells[ledgerKey{where: where, queue: queue, reason: reason}]; ok {
		return c.n
	}
	return 0
}

// ReasonTotal sums a reason's count across all ports and queues.
func (l *Ledger) ReasonTotal(reason core.Reason) int64 {
	var t int64
	for k, c := range l.cells {
		if k.reason == reason {
			t += c.n
		}
	}
	return t
}

// Marked returns the exact number of verdicts that applied CE.
func (l *Ledger) Marked() int64 { return l.marked }

// Dropped returns the exact number of admission-drop verdicts.
func (l *Ledger) Dropped() int64 { return l.dropped }

// DigestState folds the ledger's exact decision totals into a run
// fingerprint: marked/dropped, the per-reason totals array, and the ring
// cursor. Retained events are not digested individually — the reason
// totals change on every Record, so any divergence in decision history
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

// sortedKeys returns every populated cell key in (where, queue, reason)
// order, so exports and reports are deterministic.
func (l *Ledger) sortedKeys() []ledgerKey {
	keys := make([]ledgerKey, 0, len(l.cells))
	//tcnlint:ordered keys are sorted before return
	for k := range l.cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.where != b.where {
			return a.where < b.where
		}
		if a.queue != b.queue {
			return a.queue < b.queue
		}
		return a.reason < b.reason
	})
	return keys
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
	for _, e := range l.Events() {
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
	for _, k := range l.sortedKeys() {
		if err := enc.Encode(countJSON{
			Count: true, Where: k.where, Queue: k.queue,
			Reason: k.reason.String(), N: l.cells[k].n,
		}); err != nil {
			return err
		}
	}
	summary := struct {
		Summary  bool  `json:"summary"`
		Marked   int64 `json:"marked"`
		Dropped  int64 `json:"dropped"`
		Retained int   `json:"retained"`
	}{true, l.marked, l.dropped, len(l.Events())}
	if err := enc.Encode(summary); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteReport renders the verdict-breakdown report `tcnsim -explain`
// prints: the exact reason histogram per port and queue, plus marked/
// dropped totals. Deterministic (sorted cells).
func (l *Ledger) WriteReport(w io.Writer) error {
	keys := l.sortedKeys()
	if len(keys) == 0 {
		_, err := fmt.Fprintln(w, "no decisive verdicts recorded")
		return err
	}
	last := ""
	for _, k := range keys {
		if k.where != last {
			if _, err := fmt.Fprintf(w, "%s:\n", k.where); err != nil {
				return err
			}
			last = k.where
		}
		if _, err := fmt.Fprintf(w, "  q%-3d %-24s %12d\n", k.queue, k.reason, l.cells[k].n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "totals: marked=%d dropped=%d incapable=%d\n",
		l.marked, l.dropped, l.ReasonTotal(core.ReasonECNIncapable))
	return err
}

// AttachPort records a port's verdict stream under label.
func (l *Ledger) AttachPort(label string, pt *fabric.Port) {
	pt.Observe(&ledgerPort{l: l, label: label})
}

// ledgerPort is the ledger's observer on one labelled port.
type ledgerPort struct {
	l     *Ledger
	label string
}

func (lp *ledgerPort) Enqueue(sim.Time, int, *pkt.Packet)  {}
func (lp *ledgerPort) Transmit(sim.Time, int, *pkt.Packet) {}

func (lp *ledgerPort) Verdict(now sim.Time, qi int, p *pkt.Packet, v *core.Verdict) {
	lp.l.Record(now, lp.label, qi, p, v)
}

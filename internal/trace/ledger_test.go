package trace

import (
	"strings"
	"testing"

	"tcn/internal/core"
	"tcn/internal/fabric"
	"tcn/internal/obs"
	"tcn/internal/pkt"
	"tcn/internal/sim"
)

// verdictAt builds one synthetic decisive verdict.
func verdictAt(r core.Reason, marked, dropped bool) *core.Verdict {
	return &core.Verdict{Stage: core.StageEnqueue, Reason: r, Marked: marked, Dropped: dropped,
		QueueBytes: 3000, ThresholdBytes: 1500}
}

// TestLedgerRingEviction drives the ring through several wraps and checks
// that the per-cell counters and marked/dropped totals stay exact while
// only the newest `capacity` verdicts are retained, in order.
func TestLedgerRingEviction(t *testing.T) {
	const capacity, total = 3, 10
	l := NewLedger(capacity)
	p0 := l.ports.add("p0", 2, fabric.Gbps)
	for i := 0; i < total; i++ {
		r, marked, dropped := core.ReasonTCNThreshold, true, false
		if i%2 == 1 {
			r, marked, dropped = core.ReasonBufferOverflow, false, true
		}
		p := &pkt.Packet{Flow: pkt.FlowID(i), Size: 1500}
		l.verdict(sim.Time(i), p0, 0, p, verdictAt(r, marked, dropped))
	}
	ev := l.Events()
	if len(ev) != capacity {
		t.Fatalf("retained %d verdicts, want %d", len(ev), capacity)
	}
	for j, e := range ev {
		if want := pkt.FlowID(total - capacity + j); e.Flow != want {
			t.Fatalf("eviction order wrong: event %d is flow %d, want %d", j, e.Flow, want)
		}
	}
	if got := l.Count("p0", 0, core.ReasonTCNThreshold); got != 5 {
		t.Fatalf("TCNThreshold count %d, want exact 5 despite eviction", got)
	}
	if got := l.Count("p0", 0, core.ReasonBufferOverflow); got != 5 {
		t.Fatalf("BufferOverflow count %d, want exact 5 despite eviction", got)
	}
	if l.Marked() != 5 || l.Dropped() != 5 {
		t.Fatalf("totals marked=%d dropped=%d, want 5/5", l.Marked(), l.Dropped())
	}
	if got := l.ReasonTotal(core.ReasonTCNThreshold); got != 5 {
		t.Fatalf("ReasonTotal %d, want 5", got)
	}
	if got := l.Count("p0", 1, core.ReasonTCNThreshold); got != 0 {
		t.Fatalf("unpopulated cell counts %d", got)
	}
}

// marksAndDropsPort builds a one-queue TCN port fed past both its marking
// threshold and its buffer, returning the engine and port.
func marksAndDropsPort(eng *sim.Engine) *fabric.Port {
	sink := fabric.NewHost(eng, 1, 0)
	sink.Handler = func(*pkt.Packet) {}
	port := fabric.NewPort(eng, fabric.PortConfig{
		Rate:        fabric.Gbps,
		Queues:      1,
		BufferBytes: 6_000,
		Marker:      core.NewTCN(20 * sim.Microsecond),
	}, sink)
	return port
}

// TestLedgerReconcilesWithTracer pins the acceptance invariant on a
// single-switch path: every mark and drop carries a non-Unknown reason,
// and the ledger's totals equal the tracer's transmission-side counters
// exactly.
func TestLedgerReconcilesWithTracer(t *testing.T) {
	eng := sim.NewEngine()
	port := marksAndDropsPort(eng)
	reg := obs.NewRegistry()
	l := NewLedger(64)
	l.Instrument(reg)
	tr := New(64)
	tr.AttachPort("p0", port)
	l.AttachPort("p0", port)
	for i := 0; i < 10; i++ {
		port.Send(&pkt.Packet{Size: 1500, ECN: pkt.ECT0, Seq: int64(i)})
	}
	eng.Run()

	if l.Marked() == 0 || l.Dropped() == 0 {
		t.Fatalf("scenario too tame: marked=%d dropped=%d", l.Marked(), l.Dropped())
	}
	if l.Marked() != tr.Count(Mark) {
		t.Fatalf("ledger marked=%d, tracer marks=%d: attribution lost a mark", l.Marked(), tr.Count(Mark))
	}
	if l.Dropped() != tr.Count(Drop) {
		t.Fatalf("ledger dropped=%d, tracer drops=%d", l.Dropped(), tr.Count(Drop))
	}
	for _, e := range l.Events() {
		if e.V.Reason == core.ReasonUnknown {
			t.Fatalf("verdict without a reason: %+v", e)
		}
		if e.Where != "p0" {
			t.Fatalf("label missing: %+v", e)
		}
	}
	if got := l.Count("p0", 0, core.ReasonTCNThreshold); got != l.Marked() {
		t.Fatalf("TCN marks attributed to %d verdicts, want %d", got, l.Marked())
	}
	if got := l.Count("p0", 0, core.ReasonBufferOverflow); got != l.Dropped() {
		t.Fatalf("drops attributed to %d verdicts, want %d", got, l.Dropped())
	}
	// The instrumented registry mirrors the exact cells.
	if c := reg.Counter("p0.q0.verdicts.TCNThreshold"); c.Value() != l.Marked() {
		t.Fatalf("registry counter %d, want %d", c.Value(), l.Marked())
	}
	if c := reg.Counter("p0.q0.verdicts.BufferOverflow"); c.Value() != l.Dropped() {
		t.Fatalf("registry drop counter %d, want %d", c.Value(), l.Dropped())
	}
}

// TestLedgerWriteJSONL checks the export shape: verdict lines first, then
// exact-count lines, then the summary — and byte-for-byte determinism.
func TestLedgerWriteJSONL(t *testing.T) {
	l := NewLedger(8)
	sw := l.ports.add("sw.p2", 2, fabric.Gbps)
	p := &pkt.Packet{Flow: 7, Seq: 3000, Size: 1500}
	v := verdictAt(core.ReasonTCNThreshold, true, false)
	v.Sojourn = 55 * sim.Microsecond
	v.ThresholdTime = 20 * sim.Microsecond
	l.verdict(5*sim.Microsecond, sw, 1, p, v)
	l.verdict(6*sim.Microsecond, sw, 0, &pkt.Packet{Flow: 8, Size: 900},
		verdictAt(core.ReasonBufferOverflow, false, true))

	var buf strings.Builder
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 2 verdicts + 2 counts + summary:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], `"at_ns":5000`) || !strings.Contains(lines[0], `"reason":"TCNThreshold"`) ||
		!strings.Contains(lines[0], `"sojourn_ns":55000`) {
		t.Errorf("first verdict line: %s", lines[0])
	}
	if !strings.Contains(lines[2], `"count":true`) {
		t.Errorf("first count line: %s", lines[2])
	}
	if !strings.Contains(lines[4], `"summary":true`) || !strings.Contains(lines[4], `"marked":1`) ||
		!strings.Contains(lines[4], `"dropped":1`) {
		t.Errorf("summary line: %s", lines[4])
	}
	var buf2 strings.Builder
	if err := l.WriteJSONL(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("JSONL export not deterministic")
	}
}

// TestLedgerWriteReport checks the -explain rendering.
func TestLedgerWriteReport(t *testing.T) {
	l := NewLedger(8)
	sw := l.ports.add("sw.p1", 2, fabric.Gbps)
	l.verdict(0, sw, 0, &pkt.Packet{Size: 1500}, verdictAt(core.ReasonTCNThreshold, true, false))
	l.verdict(sim.Nanosecond, sw, 0, &pkt.Packet{Size: 1500}, verdictAt(core.ReasonTCNThreshold, true, false))
	l.verdict(2*sim.Nanosecond, sw, 1, &pkt.Packet{Size: 900}, verdictAt(core.ReasonBufferOverflow, false, true))
	var buf strings.Builder
	if err := l.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"sw.p1:", "TCNThreshold", "BufferOverflow", "totals: marked=2 dropped=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	var empty strings.Builder
	if err := NewLedger(1).WriteReport(&empty); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), "no decisive verdicts") {
		t.Errorf("empty report: %q", empty.String())
	}
}

func TestNewLedgerValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLedger(0)
}

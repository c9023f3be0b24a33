package trace

import (
	"fmt"
	"strings"
	"testing"

	"tcn/internal/core"
	"tcn/internal/fabric"
	"tcn/internal/pkt"
	"tcn/internal/sim"
)

func ev(at sim.Time, k Kind, flow pkt.FlowID) Event {
	return Event{At: at, Kind: k, Where: "p0", Flow: flow, Size: 1500, ECN: pkt.ECT0}
}

func TestRingKeepsNewest(t *testing.T) {
	tr := New(3)
	for i := 0; i < 5; i++ {
		tr.Record(ev(sim.Time(i), Transmit, pkt.FlowID(i)))
	}
	got := tr.Events()
	if len(got) != 3 {
		t.Fatalf("retained %d events", len(got))
	}
	for i, e := range got {
		if e.Flow != pkt.FlowID(i+2) {
			t.Fatalf("eviction order wrong: %v", got)
		}
	}
	if tr.Count(Transmit) != 5 {
		t.Fatalf("counter %d, want exact 5 despite eviction", tr.Count(Transmit))
	}
}

func TestEventsBeforeWrap(t *testing.T) {
	tr := New(10)
	tr.Record(ev(1*sim.Nanosecond, Transmit, 1))
	tr.Record(ev(2*sim.Nanosecond, Drop, 2))
	got := tr.Events()
	if len(got) != 2 || got[0].Flow != 1 || got[1].Kind != Drop {
		t.Fatalf("events: %v", got)
	}
}

func TestEventString(t *testing.T) {
	s := ev(5*sim.Microsecond, Mark, 7).String()
	for _, want := range []string{"mark", "p0", "flow=7", "ECT(0)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestAttachPortRecordsTxMarksAndDrops(t *testing.T) {
	eng := sim.NewEngine()
	var delivered int
	sinkHost := fabric.NewHost(eng, 1, 0)
	sinkHost.Handler = func(*pkt.Packet) { delivered++ }

	port := fabric.NewPort(eng, fabric.PortConfig{
		Rate:        fabric.Gbps,
		Queues:      1,
		BufferBytes: 4500,
	}, sinkHost)
	tr := New(100)
	tr.AttachPort("bottleneck", port)

	// 4 packets into a 4500B buffer: 1 in service + 3... the 4th drops
	// after the first enters service; mark one manually via CE.
	for i := 0; i < 5; i++ {
		p := &pkt.Packet{Size: 1500, ECN: pkt.ECT0, Seq: int64(i)}
		if i == 0 {
			p.ECN = pkt.CE
		}
		port.Send(p)
	}
	eng.Run()

	if tr.Count(Drop) == 0 {
		t.Fatal("no drops recorded")
	}
	if tr.Count(Mark) != 1 {
		t.Fatalf("marks = %d, want 1", tr.Count(Mark))
	}
	if int(tr.Count(Transmit)+tr.Count(Mark)) != delivered {
		t.Fatalf("tx events %d != delivered %d", tr.Count(Transmit)+tr.Count(Mark), delivered)
	}
	for _, e := range tr.Events() {
		if e.Where != "bottleneck" {
			t.Fatalf("label missing: %+v", e)
		}
	}
}

// eventLog is a test observer that logs every port event it sees.
type eventLog []string

func (l *eventLog) Enqueue(_ sim.Time, _ int, p *pkt.Packet) {
	*l = append(*l, fmt.Sprintf("enq %d", p.Seq))
}

func (l *eventLog) Verdict(_ sim.Time, _ int, p *pkt.Packet, v *core.Verdict) {
	*l = append(*l, fmt.Sprintf("verdict %d %v %v dropped=%v", p.Seq, v.Stage, v.Reason, v.Dropped))
}

func (l *eventLog) Transmit(_ sim.Time, _ int, p *pkt.Packet) {
	*l = append(*l, fmt.Sprintf("tx %d", p.Seq))
}

// TestAttachPortFansOut attaches two observers and the tracer to one
// port: each observer sees every packet's Enqueue → Verdict → Transmit in
// pipeline order, a buffer drop arrives as the admission verdict, and
// the tracer records from the same stream.
func TestAttachPortFansOut(t *testing.T) {
	eng := sim.NewEngine()
	sinkHost := fabric.NewHost(eng, 1, 0)
	sinkHost.Handler = func(*pkt.Packet) {}
	port := fabric.NewPort(eng, fabric.PortConfig{
		Rate: fabric.Gbps, Queues: 1, BufferBytes: 4500,
		Marker: core.NewTCN(10 * sim.Microsecond),
	}, sinkHost)
	var a, b eventLog
	port.Observe(&a)
	tr := New(10)
	tr.AttachPort("p", port)
	port.Observe(&b)
	// Packet 0 enters service at once; 1–3 fill the buffer and wait
	// 12, 24, 36 us (> the 10 us threshold); 4 finds it full.
	for i := 0; i < 5; i++ {
		port.Send(&pkt.Packet{Size: 1500, ECN: pkt.ECT0, Seq: int64(i)})
	}
	eng.Run()
	want := []string{
		"enq 0", "tx 0", "enq 1", "enq 2", "enq 3",
		"verdict 4 admission BufferOverflow dropped=true",
		"verdict 1 dequeue TCNThreshold dropped=false", "tx 1",
		"verdict 2 dequeue TCNThreshold dropped=false", "tx 2",
		"verdict 3 dequeue TCNThreshold dropped=false", "tx 3",
	}
	for name, got := range map[string]eventLog{"first": a, "second": b} {
		if strings.Join(got, "; ") != strings.Join(want, "; ") {
			t.Errorf("%s observer saw\n  %v\nwant\n  %v", name, got, want)
		}
	}
	if tr.Count(Transmit) != 1 || tr.Count(Mark) != 3 || tr.Count(Drop) != 1 {
		t.Fatalf("tracer tx/mark/drop = %d/%d/%d, want 1/3/1",
			tr.Count(Transmit), tr.Count(Mark), tr.Count(Drop))
	}
}

// TestRingEvictionAcrossMultipleWraps drives the ring through several
// full wrap-arounds and checks that Events() is always the last
// `capacity` events in exact chronological order, with counters exact.
func TestRingEvictionAcrossMultipleWraps(t *testing.T) {
	const capacity, total = 7, 100
	tr := New(capacity)
	for i := 0; i < total; i++ {
		k := Transmit
		if i%3 == 0 {
			k = Drop
		}
		tr.Record(ev(sim.Time(i), k, pkt.FlowID(i)))
		// Invariant holds at every step, not just at the end.
		got := tr.Events()
		want := i + 1
		if want > capacity {
			want = capacity
		}
		if len(got) != want {
			t.Fatalf("after %d records: retained %d, want %d", i+1, len(got), want)
		}
		for j, e := range got {
			if wantFlow := pkt.FlowID(i + 1 - want + j); e.Flow != wantFlow {
				t.Fatalf("after %d records: event %d is flow %d, want %d", i+1, j, e.Flow, wantFlow)
			}
		}
	}
	wantDrops := int64((total + 2) / 3)
	if tr.Count(Drop) != wantDrops || tr.Count(Transmit) != total-wantDrops {
		t.Fatalf("counters drop=%d tx=%d, want %d/%d despite eviction",
			tr.Count(Drop), tr.Count(Transmit), wantDrops, total-wantDrops)
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := New(10)
	tr.Record(Event{At: 5 * sim.Microsecond, Kind: Mark, Where: "sw.p2", Queue: 1,
		Flow: 7, Seq: 3000, Size: 1500, DSCP: 1, ECN: pkt.CE})
	tr.Record(Event{At: 6 * sim.Microsecond, Kind: Drop, Where: "sw.p2", Queue: 0,
		Flow: 8, Size: 900, ECN: pkt.ECT0})
	var buf strings.Builder
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 2 events + summary:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], `"at_ns":5000`) || !strings.Contains(lines[0], `"kind":"mark"`) {
		t.Errorf("first line: %s", lines[0])
	}
	if !strings.Contains(lines[2], `"summary":true`) || !strings.Contains(lines[2], `"drop":1`) {
		t.Errorf("summary line: %s", lines[2])
	}
	// Determinism: a second export is byte-identical.
	var buf2 strings.Builder
	if err := tr.WriteJSONL(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("JSONL export not deterministic")
	}
}

func TestNewValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tcn/internal/core"
	"tcn/internal/fabric"
	"tcn/internal/obs"
	"tcn/internal/pkt"
	"tcn/internal/sched"
	"tcn/internal/sim"
)

// wrapScenario drives three two-queue TCN ports, two of them attached
// under one label, past their marking thresholds and buffers with every
// sink's ring far smaller than the event count, and returns the sinks.
// Some packets are not ECN-capable, so the ledger also records
// ECNIncapable verdicts.
func wrapScenario() (*Tracer, *Ledger, *Pipeline, *obs.Registry) {
	eng := sim.NewEngine()
	sink := fabric.NewHost(eng, 1, 0)
	sink.Handler = func(*pkt.Packet) {}
	reg := obs.NewRegistry()
	tr, l, pl := New(16), NewLedger(16), NewPipeline(16)
	l.Instrument(reg)
	var ports []*fabric.Port
	for i, label := range []string{"sw.p1", "sw.p0", "sw.p1"} {
		port := fabric.NewPort(eng, fabric.PortConfig{
			Rate:        fabric.Gbps,
			Queues:      2,
			BufferBytes: 9_000 + 1_500*i,
			Scheduler:   sched.NewDWRREqual(2, 1500),
			Marker:      core.NewTCN(20 * sim.Microsecond),
		}, sink)
		tr.AttachPort(label, port)
		l.AttachPort(label, port)
		pl.AttachPort(label, port)
		ports = append(ports, port)
	}
	for i := 0; i < 40; i++ {
		for j, port := range ports {
			ecn := pkt.ECT0
			if (i+j)%7 == 0 {
				ecn = pkt.NotECT
			}
			port.Send(&pkt.Packet{Flow: pkt.FlowID(j + 1), Seq: int64(i), Size: 1000 + 100*(i%5),
				DSCP: uint8(i % 2), ECN: ecn})
		}
	}
	eng.Run()
	return tr, l, pl, reg
}

// TestExportPinsWithWrapAndRepeatedLabel pins the bytes of every trace
// export for a run in which every ring wraps and one label names two
// ports, so the exports' ring order, label rendering and merged exact
// counters cannot drift silently. The digests were recorded before the
// sinks shared one record type.
func TestExportPinsWithWrapAndRepeatedLabel(t *testing.T) {
	tr, l, pl, reg := wrapScenario()
	if tr.Count(Mark) == 0 || tr.Count(Drop) == 0 || l.ReasonTotal(core.ReasonECNIncapable) == 0 {
		t.Fatalf("scenario too tame: marks=%d drops=%d incapable=%d",
			tr.Count(Mark), tr.Count(Drop), l.ReasonTotal(core.ReasonECNIncapable))
	}
	if n := len(tr.Events()); n != 16 || tr.Count(Transmit)+tr.Count(Mark)+tr.Count(Drop) <= 16 {
		t.Fatalf("tracer ring did not wrap: retained %d", n)
	}
	if len(l.Events()) != 16 || l.Marked()+l.Dropped() <= 16 || pl.Recorded() <= 16 {
		t.Fatalf("ledger or pipeline ring did not wrap")
	}
	// The registry holds a counter for exactly each populated cell: one is
	// created at a cell's first verdict, and the two sw.p1 ports share
	// theirs.
	var want, got []string
	_ = l.eachCell(func(where string, q int, r core.Reason, _ int64) error {
		want = append(want, fmt.Sprintf("%s.q%d.verdicts.%s", where, q, r))
		return nil
	})
	reg.WalkCounters(func(name string, _ *obs.Counter) { got = append(got, name) })
	sort.Strings(got)
	sort.Strings(want)
	if len(want) != 10 || strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("registry counters %v, want the %d populated cells %v", got, len(want), want)
	}
	if got, want := reg.Counter("sw.p1.q0.verdicts.TCNThreshold").Value(),
		l.Count("sw.p1", 0, core.ReasonTCNThreshold); got != want || got == 0 {
		t.Fatalf("registry sw.p1 q0 TCNThreshold = %d, ledger %d", got, want)
	}
	for name, c := range map[string]struct {
		write func(*bytes.Buffer) error
		want  string
	}{
		"tracer.jsonl":  {func(b *bytes.Buffer) error { return tr.WriteJSONL(b) }, "df9a48f6bdff97a65ca1e6ac292ab637c70231d24e9b15c98da1f2926b5b8a31"},
		"ledger.jsonl":  {func(b *bytes.Buffer) error { return l.WriteJSONL(b) }, "7b277e76597e1195e5a5840d2a0758a0af019eab170ceb661b0dc400b68e58ab"},
		"ledger.report": {func(b *bytes.Buffer) error { return l.WriteReport(b) }, "5539e200d315311276b17139851caf2676e444cbedfe7c38420a00cd42f384d0"},
		"perfetto.json": {func(b *bytes.Buffer) error { return pl.WriteJSON(b) }, "1dc1e904c16f42c8d60c933210e044218b21ac4ec0f3202deb56be57b5f19c0b"},
	} {
		var buf bytes.Buffer
		if err := c.write(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: sha256 %s, want %s (%d bytes)", name, got, c.want, buf.Len())
		}
	}
}

// TestRingPayloadsArePointerFree pins the size of each ring payload and
// walks its type for pointers: the garbage collector never scans a ring
// of pointer-free values, which is what keeps a 1<<16-event ring cheap.
func TestRingPayloadsArePointerFree(t *testing.T) {
	for _, c := range []struct {
		v    any
		size uintptr
	}{{record{}, 48}, {ledgerEntry{}, 120}} {
		typ := reflect.TypeOf(c.v)
		if typ.Size() != c.size {
			t.Errorf("%v is %d bytes, want %d", typ, typ.Size(), c.size)
		}
		if hasPointers(typ) {
			t.Errorf("%v holds a pointer", typ)
		}
	}
	// The labelled views carry strings; the walk must see them.
	for _, v := range []any{Event{}, VerdictEvent{}, ledgerCell{}} {
		if !hasPointers(reflect.TypeOf(v)) {
			t.Errorf("%T: pointer walk missed a pointer", v)
		}
	}
}

// hasPointers reports whether a value of type typ holds any pointer.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return typ.Len() > 0 && hasPointers(typ.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return true
	default:
		return false
	}
}

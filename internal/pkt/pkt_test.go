package pkt

import (
	"strings"
	"testing"
	"unsafe"

	"tcn/internal/sim"
)

func TestECNCapability(t *testing.T) {
	cases := []struct {
		e    ECN
		want bool
	}{
		{NotECT, false},
		{ECT0, true},
		{ECT1, true},
		{CE, true},
	}
	for _, c := range cases {
		if got := c.e.ECNCapable(); got != c.want {
			t.Errorf("%v.ECNCapable() = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestECNStrings(t *testing.T) {
	for e, want := range map[ECN]string{
		NotECT:  "Not-ECT",
		ECT0:    "ECT(0)",
		ECT1:    "ECT(1)",
		CE:      "CE",
		ECN(99): "ECN(99)",
	} {
		if got := e.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", e, got, want)
		}
	}
}

func TestMark(t *testing.T) {
	p := &Packet{ECN: ECT0}
	if !p.Mark() || p.ECN != CE {
		t.Fatal("ECT(0) packet should mark to CE")
	}
	// CE stays CE and still reports marked.
	if !p.Mark() || p.ECN != CE {
		t.Fatal("CE packet should remain CE")
	}
	q := &Packet{ECN: NotECT}
	if q.Mark() {
		t.Fatal("Not-ECT packet must not be marked")
	}
	if q.ECN != NotECT {
		t.Fatal("Not-ECT codepoint must be preserved")
	}
}

func TestSojourn(t *testing.T) {
	p := &Packet{EnqueuedAt: 100 * sim.Nanosecond}
	if got := p.Sojourn(350 * sim.Nanosecond); got != 250 {
		t.Fatalf("Sojourn = %v, want 250", got)
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		Data: "data", Ack: "ack", Ping: "ping", Pong: "pong", Kind(9): "kind(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{Flow: 3, Src: 1, Dst: 2, Kind: Data, Seq: 1460, Len: 1460, Size: 1500, DSCP: 4, ECN: CE}
	s := p.String()
	for _, want := range []string{"data", "flow=3", "1->2", "seq=1460", "dscp=4", "CE"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestSizeConstants(t *testing.T) {
	if MSS != MTU-HeaderSize {
		t.Fatalf("MSS %d != MTU-HeaderSize %d", MSS, MTU-HeaderSize)
	}
	if AckSize != HeaderSize {
		t.Fatal("pure ACKs should be header-only")
	}
	var _ sim.Time = (&Packet{}).EnqueuedAt
}

// TestPacketSizeClass pins Packet to the allocator's 128-byte size class:
// one more word would move every packet into the 144-byte class.
func TestPacketSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n > 128 {
		t.Fatalf("Packet is %d bytes, want at most 128", n)
	}
}

package fabric

import (
	"encoding/binary"
	"testing"

	"tcn/internal/core"
	"tcn/internal/pkt"
	"tcn/internal/sim"
)

// departures records transmission instants at a port with no peer.
type departures struct{ at []sim.Time }

func (d *departures) Enqueue(sim.Time, int, *pkt.Packet)                {}
func (d *departures) Verdict(sim.Time, int, *pkt.Packet, *core.Verdict) {}
func (d *departures) Transmit(now sim.Time, _ int, _ *pkt.Packet)       { d.at = append(d.at, now) }

// TestShaperOneRetryPerStall saturates a shaped port and checks that each
// stall costs exactly one retry event. A packet stalled iff it left later
// than its predecessor's serialization ended; every other event is a
// link-free timer, one per packet (the port has no peer, so no delivery
// events).
func TestShaperOneRetryPerStall(t *testing.T) {
	eng := sim.NewEngine()
	pt := NewPort(eng, PortConfig{
		Rate: Gbps, Queues: 1,
		Shaper: NewTokenBucket(Rate(float64(Gbps)*0.995), 2500),
	}, nil)
	d := &departures{}
	pt.Observe(d)
	const n = 2000
	for i := 0; i < n; i++ {
		pt.Send(&pkt.Packet{Size: 1500})
	}
	eng.Run()
	if len(d.at) != n {
		t.Fatalf("sent %d, want %d", len(d.at), n)
	}
	ser := Gbps.Serialize(1500)
	stalls := 0
	for i := 1; i < n; i++ {
		if d.at[i] > d.at[i-1]+ser {
			stalls++
		}
	}
	if stalls == 0 {
		t.Fatal("shaper never stalled: the retry path was not exercised")
	}
	if got, want := eng.Executed, uint64(n+stalls); got != want {
		t.Fatalf("executed %d events for %d packets and %d stalls, want %d (one retry per stall)",
			got, n, stalls, want)
	}
}

// FuzzShaper drives a token bucket with random packet sizes and gaps. It
// checks the conformance bound — bytes granted never exceed
// rate × elapsed + burst — and that a refused packet fits after exactly
// the reported wait, so each stall needs one retry.
func FuzzShaper(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 220, 5, 255, 255, 100, 0, 3, 0, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		const burst = 2500
		rate := Rate(float64(Gbps) * 0.995)
		tb := NewTokenBucket(rate, burst)
		var now sim.Time
		granted := 0
		for ; len(data) >= 4; data = data[4:] {
			now += sim.Time(binary.LittleEndian.Uint16(data))
			size := 64 + int(binary.LittleEndian.Uint16(data[2:]))%1437
			ok, wait := tb.Take(now, size)
			if ok {
				granted += size
			} else {
				retry := *tb
				if ok, _ := retry.Take(now+wait, size); !ok {
					t.Fatalf("%d B refused at %v, still refused after the reported wait %v", size, now, wait)
				}
			}
			if limit := float64(rate)/8*now.Seconds() + burst; float64(granted) > limit+1 {
				t.Fatalf("granted %d B by %v, above rate×elapsed+burst = %.1f", granted, now, limit)
			}
		}
	})
}

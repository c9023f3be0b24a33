package transport

import (
	"testing"

	"tcn/internal/fabric"
	"tcn/internal/invariant"
	"tcn/internal/pkt"
	"tcn/internal/sim"
)

// steadyStateStar builds a two-host star with one long DCTCP flow and runs
// it past slow start, so every later packet travels pool → network → pool.
func steadyStateStar(t testing.TB) (*sim.Engine, *Stack) {
	eng := sim.NewEngine()
	star := fabric.NewStar(eng, fabric.StarConfig{
		Hosts: 2,
		Rate:  10 * fabric.Gbps,
		Prop:  10 * sim.Microsecond,
		SwitchPort: func() fabric.PortConfig {
			return fabric.PortConfig{Queues: 1}
		},
	})
	s := NewStack(eng, Config{CC: DCTCP}, star.Hosts)
	s.Start(&Flow{ID: s.NewFlowID(), Src: 0, Dst: 1, Size: 1 << 40})
	eng.RunUntil(50 * sim.Millisecond)
	if s.Timeouts != 0 {
		t.Fatalf("warmup suffered %d timeouts; steady state not reached", s.Timeouts)
	}
	return eng, s
}

// TestSteadyStatePacketPathAllocFree pins the zero-alloc property of the
// whole packet path — transmit, NIC, switch, delivery, ACK, window update,
// RTO rearm — once the packet pool and event freelist are warm.
func TestSteadyStatePacketPathAllocFree(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant.Checkf boxes its arguments; allocation-freedom only holds in normal builds")
	}
	eng, s := steadyStateStar(t)
	before := s.pool.Allocs
	if n := testing.AllocsPerRun(50, func() {
		eng.RunUntil(eng.Now() + sim.Millisecond)
	}); n != 0 { //tcnlint:floatexact AllocsPerRun must be exactly zero
		t.Fatalf("steady-state run allocates %.1f per ms of sim time, want 0", n)
	}
	if s.pool.Allocs != before {
		t.Fatalf("pool grew by %d packets in steady state", s.pool.Allocs-before)
	}
	if s.pool.Reuses == 0 {
		t.Fatal("pool recorded no reuses; packets are not being recycled")
	}
}

// TestPoolRoundTrip checks that delivered packets actually return to the
// stack's pool and are reissued rather than accumulating.
func TestPoolRoundTrip(t *testing.T) {
	eng, s := steadyStateStar(t)
	eng.RunUntil(eng.Now() + 10*sim.Millisecond)
	// Fresh allocations are bounded by the peak number of simultaneously
	// live packets (at most the max window); after that every send is a
	// reuse, so reuses dominate on a long run.
	if s.pool.Reuses < 10*s.pool.Allocs {
		t.Fatalf("pool reuse ratio too low: %d allocs, %d reuses", s.pool.Allocs, s.pool.Reuses)
	}
}

// TestPoolGetPut exercises the pkt.Pool contract directly: New issues
// the packet it was given, fresh or recycled, Put and Release return it,
// and the nil-pool and nil-packet edge cases are harmless.
func TestPoolGetPut(t *testing.T) {
	var pl pkt.Pool
	a := pl.New(pkt.Packet{Flow: 7, Size: pkt.AckSize})
	if pl.Allocs != 1 || pl.Reuses != 0 {
		t.Fatalf("fresh New: allocs=%d reuses=%d", pl.Allocs, pl.Reuses)
	}
	if a.Flow != 7 || a.Size != pkt.AckSize {
		t.Fatalf("New issued %v", a)
	}
	pl.Put(a)
	if pl.Live() != 1 {
		t.Fatalf("Live = %d after Put, want 1", pl.Live())
	}
	if b := pl.New(pkt.Packet{Flow: 8}); b != a || b.Flow != 8 || b.Size != 0 {
		t.Fatalf("New did not reissue the pooled packet whole: %v", b)
	}
	if pl.Reuses != 1 {
		t.Fatalf("Reuses = %d, want 1", pl.Reuses)
	}
	a.Release()
	if pl.Live() != 1 {
		t.Fatalf("Live = %d after Release, want 1", pl.Live())
	}
	pl.New(pkt.Packet{})
	pl.Put(nil) // no-op
	if pl.Live() != 0 {
		t.Fatalf("Put(nil) changed Live to %d", pl.Live())
	}
	var nilPool *pkt.Pool
	p := nilPool.New(pkt.Packet{})
	if p == nil {
		t.Fatal("nil pool New returned nil")
	}
	p.Release()                // no pool: left to the garbage collector
	nilPool.Put(&pkt.Packet{}) // no-op
	if nilPool.Live() != 0 {
		t.Fatal("nil pool Live != 0")
	}
}

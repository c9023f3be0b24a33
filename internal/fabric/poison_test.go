//go:build invariants

package fabric

import (
	"testing"

	"tcn/internal/pkt"
	"tcn/internal/sim"
)

// TestRecycledPacketReusePanics checks that invariants builds catch reuse
// of a packet after it went back to its pool: sending or receiving it,
// or putting it back a second time, panics.
func TestRecycledPacketReusePanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	eng := sim.NewEngine()
	port := NewPort(eng, PortConfig{Rate: Gbps, Queues: 1}, &sink{eng: eng})
	host := NewHost(eng, 0, 0)
	var pool pkt.Pool
	p := pool.New(pkt.Packet{Size: 1500})
	pool.Put(p)
	mustPanic("Send after Put", func() { port.Send(p) })
	mustPanic("Receive after Put", func() { host.Receive(p) })
	mustPanic("a second Put", func() { pool.Put(p) })
	if q := pool.New(pkt.Packet{Size: 1500}); q != p || q.Poisoned() {
		t.Fatal("New did not reissue the packet clean")
	}
	port.Send(p) // live again
}

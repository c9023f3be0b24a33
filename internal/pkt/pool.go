package pkt

import "tcn/internal/invariant"

// Pool recycles Packet structs along one simulation's packet path. Every
// packet a transport sends comes from New, which records the pool in the
// packet; the packet comes back through Put once it has been consumed at
// its destination, or through Release when a port's buffer rejects it,
// so a steady-state run stops allocating on the packet path entirely,
// drops included.
//
// A Pool is deliberately not safe for concurrent use and must never be
// shared across goroutines (the tcnlint goshare analyzer enforces this):
// like the event freelist in sim.Engine, it belongs to exactly one engine,
// which is what lets the parallel sweep executor run one fully independent
// simulation per worker without locks.
//
// Ownership rules mirror the Packet contract: a packet handed to Put must
// be dead — owned by no queue, link, or pending event. In invariants
// builds Put poisons the packet, a second Put of it panics, and the
// network's entry points (fabric.Port.Send, fabric.Host.Receive, the
// transport's delivery) panic on a poisoned packet, so reuse after
// release is caught where it happens instead of silently aliasing.
type Pool struct {
	free []*Packet

	// Allocs counts packets created fresh because the freelist was empty;
	// Reuses counts recycled hand-outs. Diagnostics only.
	Allocs, Reuses int64
}

// poisoned is the Kind a packet carries while it waits in a pool, in
// invariants builds.
const poisoned Kind = 0xff

// New returns a packet holding v, taken from the freelist when it has
// one, and records pl as the pool Release returns it to. A nil pool
// allocates a packet that Release leaves to the garbage collector.
func (pl *Pool) New(v Packet) *Packet {
	var p *Packet
	switch {
	case pl == nil:
		p = new(Packet)
	case len(pl.free) > 0:
		n := len(pl.free)
		p = pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		pl.Reuses++
	default:
		pl.Allocs++
		p = new(Packet)
	}
	*p = v
	p.pool = pl
	return p
}

// Put returns a dead packet to the pool. Put(nil) and puts on a nil pool
// are no-ops.
func (pl *Pool) Put(p *Packet) {
	if pl == nil || p == nil {
		return
	}
	if invariant.Enabled {
		invariant.Checkf(!p.Poisoned(), "pkt: packet %p put into a pool twice", p)
		p.Kind = poisoned
	}
	pl.free = append(pl.free, p) //tcnlint:hotpath freelist grows only during warm-up; steady state recycles within cap
}

// Release returns a dead packet to the pool New took it from; a packet
// from no pool is left to the garbage collector. It serves the drop
// path, where the dropping port does not know the sender.
func (p *Packet) Release() { p.pool.Put(p) }

// Poisoned reports whether p waits in a pool: in invariants builds, a
// packet handed to Put and not yet reissued by New. Always false in
// other builds.
func (p *Packet) Poisoned() bool { return p.Kind == poisoned }

// Live returns the number of packets currently parked in the pool.
func (pl *Pool) Live() int {
	if pl == nil {
		return 0
	}
	return len(pl.free)
}

package fabric

import (
	"fmt"

	"tcn/internal/invariant"
	"tcn/internal/pkt"
	"tcn/internal/sim"
)

// Host is an end system: one NIC egress port toward its switch, a fixed
// receive-side processing delay (used to calibrate base RTT to the paper's
// measured values), and a handler that the transport layer installs.
type Host struct {
	ID    int
	eng   *sim.Engine
	nic   *Port
	delay sim.Time

	// Handler receives every packet addressed to this host, after the
	// processing delay. The transport stack installs it.
	Handler func(p *pkt.Packet)

	// deliverFn is the stored delay-line callback, so per-packet
	// scheduling in Receive goes through AfterArg without a closure.
	deliverFn func(any)
}

// NewHost returns a host; the NIC port is attached later via SetNIC
// because the port needs its peer (the switch) first.
func NewHost(eng *sim.Engine, id int, delay sim.Time) *Host {
	h := &Host{ID: id, eng: eng, delay: delay}
	h.deliverFn = func(v any) { h.deliver(v.(*pkt.Packet)) }
	return h
}

// SetNIC installs the host's egress port.
func (h *Host) SetNIC(p *Port) { h.nic = p }

// Send pushes a packet from this host into the network.
func (h *Host) Send(p *pkt.Packet) {
	if h.nic == nil {
		panic(fmt.Sprintf("fabric: host %d has no NIC", h.ID))
	}
	h.nic.Send(p)
}

// Receive implements Receiver: deliver to the transport after the host
// processing delay.
func (h *Host) Receive(p *pkt.Packet) {
	if invariant.Enabled {
		invariant.Checkf(!p.Poisoned(), "fabric: host %d receives packet %p after its release", h.ID, p)
	}
	if h.delay > 0 {
		h.eng.AfterArg(h.delay, h.deliverFn, p)
		return
	}
	h.deliver(p)
}

func (h *Host) deliver(p *pkt.Packet) {
	if h.Handler != nil {
		h.Handler(p)
	}
}

// Switch forwards packets between egress ports according to a routing
// function set by the topology builder.
type Switch struct {
	ID    int
	eng   *sim.Engine
	ports []*Port
	route func(p *pkt.Packet) int
}

// NewSwitch returns a switch with no ports; the topology builder adds them.
func NewSwitch(eng *sim.Engine, id int) *Switch {
	return &Switch{ID: id, eng: eng}
}

// AddPort appends an egress port and returns its index.
func (s *Switch) AddPort(p *Port) int {
	s.ports = append(s.ports, p)
	return len(s.ports) - 1
}

// Port returns egress port i.
func (s *Switch) Port(i int) *Port { return s.ports[i] }

// NumPorts returns the number of egress ports.
func (s *Switch) NumPorts() int { return len(s.ports) }

// CheckConservation checks every egress port's packet conservation law:
// each packet (and byte) a queue admitted has been transmitted or is
// still buffered; drops never enter the count, the buffer tallies them
// apart. A violation panics naming the switch, port and queue.
// Experiment runners call it at the end of every cell; it costs a few
// comparisons per queue, so it runs in every build.
func (s *Switch) CheckConservation() {
	for i, pt := range s.ports {
		for qi := range pt.admitted {
			n, b := int64(pt.buf.Len(qi)), int64(pt.buf.Bytes(qi))
			if pt.admitted[qi] != pt.TxPackets[qi]+n || pt.admittedBytes[qi] != pt.TxBytes[qi]+b {
				panic(fmt.Sprintf("fabric: sw%d.p%d queue %d admitted %d packets (%d bytes) != transmitted %d (%d) + buffered %d (%d)",
					s.ID, i, qi, pt.admitted[qi], pt.admittedBytes[qi], pt.TxPackets[qi], pt.TxBytes[qi], n, b))
			}
		}
	}
}

// SetRoute installs the routing function mapping packets to egress ports.
func (s *Switch) SetRoute(route func(p *pkt.Packet) int) { s.route = route }

// Receive implements Receiver: route and forward.
func (s *Switch) Receive(p *pkt.Packet) {
	if s.route == nil {
		panic(fmt.Sprintf("fabric: switch %d has no route function", s.ID))
	}
	p.Hops++
	if p.Hops > 64 {
		panic(fmt.Sprintf("fabric: routing loop for packet %v", p))
	}
	i := s.route(p)
	if i < 0 || i >= len(s.ports) {
		panic(fmt.Sprintf("fabric: switch %d routed packet to invalid port %d", s.ID, i))
	}
	s.ports[i].Send(p)
}

// ecmpHash is a deterministic per-flow hash (FNV-1a over the flow id) used
// to pick among equal-cost uplinks.
func ecmpHash(f pkt.FlowID) uint32 {
	h := uint32(2166136261)
	x := uint32(f)
	for i := 0; i < 4; i++ {
		h ^= x & 0xFF
		h *= 16777619
		x >>= 8
	}
	return h
}

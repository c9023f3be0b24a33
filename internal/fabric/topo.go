package fabric

import (
	"fmt"

	"tcn/internal/pkt"
	"tcn/internal/sim"
)

// PortFactory produces the configuration for one switch egress port. It is
// called once per port so every port gets its own scheduler and marker
// instances; the builder fills in Rate and PropDelay if left zero.
type PortFactory func() PortConfig

// Star is the paper's testbed shape: n hosts connected to one switch
// (§6.1: 9 servers on a 9-port server-emulated switch).
type Star struct {
	Eng    *sim.Engine
	Hosts  []*Host
	Switch *Switch
}

// StarConfig parameterizes a star topology.
type StarConfig struct {
	// Hosts is the number of end systems.
	Hosts int
	// Rate applies to every link.
	Rate Rate
	// Prop is the one-way propagation delay per link.
	Prop sim.Time
	// HostDelay is the receive-side processing delay per host, used to
	// reach the experiment's base RTT.
	HostDelay sim.Time
	// SwitchPort configures each switch egress port.
	SwitchPort PortFactory
}

// NewStar builds the topology. Packets are routed to the switch port whose
// index equals the destination host id.
func NewStar(eng *sim.Engine, cfg StarConfig) *Star {
	if cfg.Hosts < 2 {
		panic(fmt.Sprintf("fabric: star needs at least 2 hosts, got %d", cfg.Hosts))
	}
	if cfg.SwitchPort == nil {
		panic("fabric: star needs a switch port factory")
	}
	st := &Star{Eng: eng, Switch: NewSwitch(eng, 0)}
	for i := 0; i < cfg.Hosts; i++ {
		h := NewHost(eng, i, cfg.HostDelay)
		// Host NIC: single unbounded FIFO queue toward the switch.
		h.SetNIC(NewPort(eng, PortConfig{Rate: cfg.Rate, PropDelay: cfg.Prop, Queues: 1}, st.Switch))
		st.Hosts = append(st.Hosts, h)

		pc := cfg.SwitchPort()
		if pc.Rate == 0 {
			pc.Rate = cfg.Rate
		}
		if pc.PropDelay == 0 {
			pc.PropDelay = cfg.Prop
		}
		st.Switch.AddPort(NewPort(eng, pc, h))
	}
	st.Switch.SetRoute(func(p *pkt.Packet) int { return p.Dst })
	return st
}

// LeafSpine is the paper's large-scale topology (§6.2): a two-tier Clos
// with ECMP across the spines. With equal host and uplink counts per leaf
// the fabric is non-blocking, as in the paper's 12×12 setup.
type LeafSpine struct {
	Eng    *sim.Engine
	Hosts  []*Host
	Leaves []*Switch
	Spines []*Switch
}

// LeafSpineConfig parameterizes a leaf-spine topology.
type LeafSpineConfig struct {
	// Leaves, Spines and HostsPerLeaf size the fabric.
	Leaves, Spines, HostsPerLeaf int
	// HostRate is the host-leaf link rate; SpineRate the leaf-spine
	// rate. The paper uses 10 Gbps for both.
	HostRate, SpineRate Rate
	// Prop is the one-way propagation delay per link.
	Prop sim.Time
	// HostDelay is the receive-side host processing delay (the paper's
	// 85.2 us base RTT has 80 us at the end hosts).
	HostDelay sim.Time
	// SwitchPort configures every switch egress port.
	SwitchPort PortFactory
}

// NewLeafSpine builds the fabric. Host h attaches to leaf h/HostsPerLeaf.
// Leaf ports [0,HostsPerLeaf) face hosts; ports [HostsPerLeaf,
// HostsPerLeaf+Spines) face spines. Spine ports [0, Leaves) face leaves.
// Up-traffic picks a spine by per-flow ECMP hash, so a flow's path is
// fixed but different flows spread across the fabric.
func NewLeafSpine(eng *sim.Engine, cfg LeafSpineConfig) *LeafSpine {
	switch {
	case cfg.Leaves < 1 || cfg.Spines < 1 || cfg.HostsPerLeaf < 1:
		panic(fmt.Sprintf("fabric: invalid leaf-spine %d×%d×%d",
			cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf))
	case cfg.SwitchPort == nil:
		panic("fabric: leaf-spine needs a switch port factory")
	}
	ls := &LeafSpine{Eng: eng}
	hpl := cfg.HostsPerLeaf

	for l := 0; l < cfg.Leaves; l++ {
		ls.Leaves = append(ls.Leaves, NewSwitch(eng, l))
	}
	for s := 0; s < cfg.Spines; s++ {
		ls.Spines = append(ls.Spines, NewSwitch(eng, cfg.Leaves+s))
	}

	// Hosts and leaf downlinks.
	for l := 0; l < cfg.Leaves; l++ {
		leaf := ls.Leaves[l]
		for k := 0; k < hpl; k++ {
			id := l*hpl + k
			h := NewHost(eng, id, cfg.HostDelay)
			h.SetNIC(NewPort(eng, PortConfig{Rate: cfg.HostRate, PropDelay: cfg.Prop, Queues: 1}, leaf))
			ls.Hosts = append(ls.Hosts, h)

			pc := cfg.SwitchPort()
			if pc.Rate == 0 {
				pc.Rate = cfg.HostRate
			}
			if pc.PropDelay == 0 {
				pc.PropDelay = cfg.Prop
			}
			leaf.AddPort(NewPort(eng, pc, h))
		}
	}

	// Leaf uplinks and spine downlinks.
	for l := 0; l < cfg.Leaves; l++ {
		leaf := ls.Leaves[l]
		for s := 0; s < cfg.Spines; s++ {
			up := cfg.SwitchPort()
			if up.Rate == 0 {
				up.Rate = cfg.SpineRate
			}
			if up.PropDelay == 0 {
				up.PropDelay = cfg.Prop
			}
			leaf.AddPort(NewPort(eng, up, ls.Spines[s]))
		}
	}
	for s := 0; s < cfg.Spines; s++ {
		spine := ls.Spines[s]
		for l := 0; l < cfg.Leaves; l++ {
			down := cfg.SwitchPort()
			if down.Rate == 0 {
				down.Rate = cfg.SpineRate
			}
			if down.PropDelay == 0 {
				down.PropDelay = cfg.Prop
			}
			spine.AddPort(NewPort(eng, down, ls.Leaves[l]))
		}
	}

	// Routing.
	spines := cfg.Spines
	for l := 0; l < cfg.Leaves; l++ {
		l := l
		ls.Leaves[l].SetRoute(func(p *pkt.Packet) int {
			if p.Dst/hpl == l {
				return p.Dst % hpl
			}
			return hpl + int(ecmpHash(p.Flow))%spines
		})
	}
	for s := 0; s < cfg.Spines; s++ {
		ls.Spines[s].SetRoute(func(p *pkt.Packet) int { return p.Dst / hpl })
	}
	return ls
}

// SwitchPorts returns every switch egress port in the fabric, for
// aggregating drop and mark counters.
func (ls *LeafSpine) SwitchPorts() []*Port {
	var ps []*Port
	for _, sw := range append(append([]*Switch{}, ls.Leaves...), ls.Spines...) {
		for i := 0; i < sw.NumPorts(); i++ {
			ps = append(ps, sw.Port(i))
		}
	}
	return ps
}

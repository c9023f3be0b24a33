// Package experiments wires the substrates into the paper's evaluation:
// one runner per figure of §6, each returning the rows or series the paper
// plots. Runners are deterministic for a given seed and take a Flows knob
// so the same code serves quick benchmarks and paper-scale runs.
package experiments

import (
	"fmt"

	"tcn/internal/aqm"
	"tcn/internal/core"
	"tcn/internal/fabric"
	"tcn/internal/pkt"
	"tcn/internal/sched"
	"tcn/internal/sim"
)

// Scheme identifies an ECN marking scheme under evaluation.
type Scheme string

// The schemes of §6 ("Schemes compared") plus the diagnostic variants used
// by Figures 2 and 3.
const (
	// SchemeTCN is Time-based Congestion Notification, threshold RTT×λ.
	SchemeTCN Scheme = "TCN"
	// SchemeTCNHW is TCN computed with the 16-bit hardware clock (§4.2).
	SchemeTCNHW Scheme = "TCN-hw"
	// SchemeCoDel is CoDel in mark mode with datacenter-tuned
	// target/interval.
	SchemeCoDel Scheme = "CoDel"
	// SchemeMQECN is MQ-ECN; valid only over round-robin schedulers.
	SchemeMQECN Scheme = "MQ-ECN"
	// SchemeRED is per-queue ECN/RED with the standard static threshold
	// C×RTT×λ — the paper's "current practice" baseline.
	SchemeRED Scheme = "RED"
	// SchemeREDDeq is dequeue-side per-queue RED (Figure 3).
	SchemeREDDeq Scheme = "RED-deq"
	// SchemePortRED is per-port RED (Figure 1).
	SchemePortRED Scheme = "PortRED"
	// SchemeDynRED is the ideal dynamic RED driven by Algorithm 1.
	SchemeDynRED Scheme = "DynRED"
	// SchemeOracle is ideal RED with externally known queue capacities.
	SchemeOracle Scheme = "Oracle"
	// SchemeNone disables marking (pure drop-tail).
	SchemeNone Scheme = "none"
)

// SchedKind selects the port scheduler.
type SchedKind string

// The schedulers of §5 and §6.
const (
	SchedFIFO   SchedKind = "fifo"
	SchedDWRR   SchedKind = "dwrr"
	SchedWFQ    SchedKind = "wfq"
	SchedSPDWRR SchedKind = "sp-dwrr"
	SchedSPWFQ  SchedKind = "sp-wfq"
	// SchedPIFOLAS is a programmable PIFO running least-attained-service
	// (rank = byte offset within the flow): a discipline with no notion
	// of rounds or static priorities, exactly the "arbitrary scheduler"
	// class MQ-ECN cannot support and TCN can (§2.2, §4.1).
	SchedPIFOLAS SchedKind = "pifo-las"
)

// SupportsScheme reports whether a scheme can run over a scheduler —
// MQ-ECN requires a pure round-robin discipline (§3.3).
func (k SchedKind) SupportsScheme(s Scheme) bool {
	if s == SchemeMQECN {
		return k == SchedDWRR
	}
	return true
}

// PortParams carries everything needed to instantiate one switch egress
// port for a given scheme and scheduler.
type PortParams struct {
	// Queues is the total queue count, including strict-priority ones.
	Queues int
	// HighQueues is the strict-priority queue count for SP composites.
	HighQueues int
	// Buffer is the shared port buffer in bytes (0 = unlimited).
	Buffer int
	// PerQueueBuffer statically partitions the buffer per queue
	// (0 = fully shared) — the buffer-model ablation.
	PerQueueBuffer int
	// Quantum is the DWRR quantum per queue in bytes.
	Quantum int

	// RTTLambda is RTT×λ; it sets the TCN threshold and, with the line
	// rate, the standard RED threshold.
	RTTLambda sim.Time
	// KBytes overrides the standard RED threshold (0 = derive from
	// RTTLambda and line rate at bind time — impossible statically, so
	// experiments set it explicitly).
	KBytes int
	// CoDelTarget and CoDelInterval configure CoDel (the paper's
	// testbed tuning is 51.2us / 1024us).
	CoDelTarget, CoDelInterval sim.Time
	// DqThresh is Algorithm 1's measurement-cycle size for DynRED.
	DqThresh int
	// TIdle is MQ-ECN's idle-reset window (paper: the transmission time
	// of one MTU at line rate).
	TIdle sim.Time
	// OracleK lists per-queue thresholds for SchemeOracle.
	OracleK []int

	// OnMQECNEstimate and OnDynREDSample, if set, receive estimator
	// traces from the built markers (Figure 2). They are attached to
	// every port the factory builds.
	OnMQECNEstimate func(now sim.Time, queue int, rate float64)
	OnDynREDSample  func(queue int) func(now sim.Time, raw, smoothed float64)
}

// NewScheduler builds a fresh scheduler of the given kind.
func (p PortParams) NewScheduler(kind SchedKind) sched.Scheduler {
	low := p.Queues - p.HighQueues
	switch kind {
	case SchedFIFO:
		return sched.NewFIFO()
	case SchedDWRR:
		return sched.NewDWRREqual(p.Queues, p.Quantum)
	case SchedWFQ:
		return sched.NewWFQEqual(p.Queues)
	case SchedSPDWRR:
		return sched.NewSPOver(p.HighQueues, sched.NewDWRREqual(low, p.Quantum))
	case SchedSPWFQ:
		return sched.NewSPOver(p.HighQueues, sched.NewWFQEqual(low))
	case SchedPIFOLAS:
		return sched.NewPIFO(func(_ sim.Time, _ int, pk *pkt.Packet) float64 {
			return float64(pk.Seq)
		})
	default:
		panic(fmt.Sprintf("experiments: unknown scheduler kind %q", kind))
	}
}

// NewMarker builds a fresh marker of the given scheme, wiring MQ-ECN to
// the scheduler when needed.
func (p PortParams) NewMarker(s Scheme, sc sched.Scheduler, rng *sim.Rand) core.Marker {
	switch s {
	case SchemeTCN:
		return core.NewTCN(p.RTTLambda)
	case SchemeTCNHW:
		return core.NewHWTCN(core.NewHWClock(8*sim.Nanosecond), p.RTTLambda)
	case SchemeCoDel:
		return aqm.NewCoDel(p.Queues, p.CoDelTarget, p.CoDelInterval)
	case SchemeMQECN:
		ri, ok := sc.(aqm.RoundInfo)
		if !ok {
			panic(fmt.Sprintf("experiments: MQ-ECN needs a round-robin scheduler, got %s", sc.Name()))
		}
		m := aqm.NewMQECN(ri, p.Queues, p.RTTLambda, p.TIdle)
		m.OnEstimate = p.OnMQECNEstimate
		return m
	case SchemeRED:
		return aqm.NewQueueRED(p.KBytes)
	case SchemeREDDeq:
		return aqm.NewDequeueRED(p.KBytes)
	case SchemePortRED:
		return aqm.NewPortRED(p.KBytes)
	case SchemeDynRED:
		d := aqm.NewDynRED(p.Queues, p.DqThresh, p.RTTLambda)
		if p.OnDynREDSample != nil {
			for i := 0; i < p.Queues; i++ {
				d.Meter(i).OnSample = p.OnDynREDSample(i)
			}
		}
		return d
	case SchemeOracle:
		return aqm.NewOracleRED(p.OracleK)
	case SchemeNone:
		return core.Nop{}
	default:
		panic(fmt.Sprintf("experiments: unknown scheme %q", s))
	}
}

// Factory returns a fabric.PortFactory producing ports with a fresh
// scheduler and marker per port.
func (p PortParams) Factory(s Scheme, kind SchedKind, rng *sim.Rand) fabric.PortFactory {
	if !kind.SupportsScheme(s) {
		panic(fmt.Sprintf("experiments: scheme %s does not support scheduler %s", s, kind))
	}
	return func() fabric.PortConfig {
		sc := p.NewScheduler(kind)
		return fabric.PortConfig{
			Queues:        p.Queues,
			BufferBytes:   p.Buffer,
			PerQueueBytes: p.PerQueueBuffer,
			Scheduler:     sc,
			Marker:        p.NewMarker(s, sc, rng),
		}
	}
}

// markCount extracts the CE-mark counter from any of the repository's
// markers, for result tables. Schemes that do not count (Nop) report 0.
func markCount(m core.Marker) int64 {
	if mc, ok := m.(core.MarkCounter); ok {
		return mc.MarkCount()
	}
	return 0
}

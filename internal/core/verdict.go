package core

import (
	"fmt"

	"tcn/internal/pkt"
	"tcn/internal/sim"
)

// Reason identifies which AQM rule produced a mark or drop. Every marker
// in the repository attributes its decisions through a Reason so that a
// run can be explained after the fact (§3's analysis of *why* per-queue
// ECN/RED misbehaves under generic scheduling is a statement about which
// rule fires when) instead of only counted.
type Reason uint8

// Decision reasons. ReasonUnknown is the zero value: a verdict that never
// became decisive. The tcnlint verdict analyzer enforces that no marker
// marks or drops a packet without replacing it.
const (
	ReasonUnknown Reason = iota
	// ReasonREDQueueAboveK: per-queue instantaneous occupancy above the
	// static threshold K (QueueRED, both sides).
	ReasonREDQueueAboveK
	// ReasonREDPortAboveK: aggregate port occupancy above K (PortRED).
	ReasonREDPortAboveK
	// ReasonREDPoolAboveK: shared service-pool occupancy above K (PoolRED).
	ReasonREDPoolAboveK
	// ReasonREDOracleAboveK: occupancy above the externally supplied
	// per-queue threshold (OracleRED).
	ReasonREDOracleAboveK
	// ReasonREDDynAboveK: occupancy above the Algorithm-1 dynamic
	// threshold K_i = avg_rate_i × RTT × λ (DynRED).
	ReasonREDDynAboveK
	// ReasonREDAvgAboveMax: WRED's EWMA average at or above Kmax
	// (deterministic mark).
	ReasonREDAvgAboveMax
	// ReasonREDProbabilistic: WRED's coin flip fired on the linear ramp
	// between Kmin and Kmax.
	ReasonREDProbabilistic
	// ReasonMQECNAboveK: occupancy above MQ-ECN's quantum/T_round
	// threshold.
	ReasonMQECNAboveK
	// ReasonCoDelSojournAboveTarget: the CoDel state machine marked on a
	// sojourn that stayed above target for an interval.
	ReasonCoDelSojournAboveTarget
	// ReasonTCNThreshold: instantaneous sojourn above T = RTT × λ (TCN,
	// HWTCN, and ProbTCN above Tmax).
	ReasonTCNThreshold
	// ReasonTCNProbabilistic: ProbTCN's coin flip fired on the ramp
	// between Tmin and Tmax.
	ReasonTCNProbabilistic
	// ReasonBufferOverflow: the shared buffer rejected the packet at
	// admission (the only packet loss in the simulator).
	ReasonBufferOverflow
	// ReasonECNIncapable: an AQM rule fired but the packet was not
	// ECN-capable, so no CE could be applied.
	ReasonECNIncapable

	numReasons // sentinel for sized arrays
)

// NumReasons is the number of defined reasons (including ReasonUnknown),
// for ledgers that keep exact per-reason counters in fixed arrays.
const NumReasons = int(numReasons)

func (r Reason) String() string {
	switch r {
	case ReasonUnknown:
		return "Unknown"
	case ReasonREDQueueAboveK:
		return "REDQueueAboveK"
	case ReasonREDPortAboveK:
		return "REDPortAboveK"
	case ReasonREDPoolAboveK:
		return "REDPoolAboveK"
	case ReasonREDOracleAboveK:
		return "REDOracleAboveK"
	case ReasonREDDynAboveK:
		return "REDDynAboveK"
	case ReasonREDAvgAboveMax:
		return "REDAvgAboveMax"
	case ReasonREDProbabilistic:
		return "REDProbabilistic"
	case ReasonMQECNAboveK:
		return "MQECNAboveK"
	case ReasonCoDelSojournAboveTarget:
		return "CoDelSojournAboveTarget"
	case ReasonTCNThreshold:
		return "TCNThreshold"
	case ReasonTCNProbabilistic:
		return "TCNProbabilistic"
	case ReasonBufferOverflow:
		return "BufferOverflow"
	case ReasonECNIncapable:
		return "ECNIncapable"
	default:
		return fmt.Sprintf("reason(%d)", uint8(r))
	}
}

// Stage locates a verdict in the packet pipeline.
type Stage uint8

// Pipeline stages a verdict can be rendered at.
const (
	// StageEnqueue is enqueue-side marking, after admission.
	StageEnqueue Stage = iota
	// StageDequeue is dequeue-side marking, before transmission.
	StageDequeue
	// StageAdmission is buffer admission control (drops).
	StageAdmission
)

func (s Stage) String() string {
	switch s {
	case StageEnqueue:
		return "enqueue"
	case StageDequeue:
		return "dequeue"
	case StageAdmission:
		return "admission"
	default:
		return fmt.Sprintf("stage(%d)", uint8(s))
	}
}

// Verdict is the self-explanation of one marking/dropping decision: the
// rule that fired (Reason), where in the pipeline (Stage), the outcome,
// and the instantaneous inputs the rule consulted. The pipeline owner
// (fabric.Port, which a qdisc.Qdisc is) resets one scratch Verdict per
// marker call and hands it down; markers fill in only the fields their
// rule reads, so an exported verdict shows exactly the evidence the
// decision was based on. The struct is plain data — threading it through the hot path costs
// no allocation.
type Verdict struct {
	// Stage is where the decision was rendered.
	Stage Stage
	// Reason is the rule that fired; ReasonUnknown = nothing fired.
	Reason Reason
	// Marked reports that CE was applied to the packet.
	Marked bool
	// Dropped reports that the packet was rejected at admission.
	Dropped bool

	// QueueBytes is the packet's queue occupancy at decision time.
	QueueBytes int
	// PortBytes is the whole port's buffered bytes at decision time.
	PortBytes int
	// AvgBytes is the averaged occupancy consulted, if any (WRED EWMA).
	AvgBytes float64
	// Sojourn is the packet's queueing delay consulted, if any.
	Sojourn sim.Time
	// ThresholdBytes is the byte threshold compared against, if any.
	ThresholdBytes int
	// ThresholdTime is the time threshold compared against, if any.
	ThresholdTime sim.Time
	// Prob is the marking probability in effect, if the rule is
	// probabilistic (1 for the deterministic region).
	Prob float64
	// TokensBytes is the shaper's token-bucket level, read without a
	// refill, when the port has a shaper (a qdisc) and observers to see
	// it; 0 otherwise. The port fills it after marking: no marker reads it.
	TokensBytes float64
}

// Reset clears v for a new decision at stage s, pre-filled with the
// occupancy context every rule shares.
func (v *Verdict) Reset(s Stage, queueBytes, portBytes int) {
	*v = Verdict{Stage: s, QueueBytes: queueBytes, PortBytes: portBytes}
}

// Decisive reports whether any rule fired: the packet was marked,
// dropped, or would have been marked but could not carry CE.
func (v *Verdict) Decisive() bool { return v.Reason != ReasonUnknown }

// Fire applies CE to p on behalf of rule r and records the outcome: on
// success the verdict becomes a Marked/r verdict, and when p cannot carry
// CE it becomes an (unmarked) ECNIncapable verdict, so threshold
// crossings on non-ECT traffic remain visible in the ledger. Markers must
// route every mark through Fire rather than calling p.Mark() directly
// (enforced by the tcnlint verdict analyzer); a nil v degrades to a plain
// mark so tests may drive markers without attribution.
func (v *Verdict) Fire(r Reason, p *pkt.Packet) bool {
	if v == nil {
		return p.Mark() //tcnlint:verdict nil-verdict fallback is the one sanctioned direct mark
	}
	if p.Mark() { //tcnlint:verdict Fire is the attribution wrapper itself
		v.Reason = r
		v.Marked = true
		return true
	}
	v.Reason = ReasonECNIncapable
	return false
}

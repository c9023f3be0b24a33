// Package prof implements the sim-structured cost profiler: it answers
// "where does a run's cost go?" by attributing executed events, elapsed
// sim-time, and (optionally) wall-clock self-time to a stack of simulator
// components — engine → port → scheduler → marker → transport — keyed
// by the same labels the ledger and digest layers use.
//
// The profiler has two planes with different determinism contracts:
//
//   - The deterministic plane counts events and sim-time per scope tree
//     node. It is driven by the engine's post-event hook plus Enter/Exit
//     calls in the instrumented components, never schedules or cancels
//     anything, and never reads wall time — so a profiled run executes
//     the exact same event sequence as a bare run and produces a
//     byte-identical fingerprint (the tcndiff bar the flight recorder met
//     in PR 3). Its output is itself digestable via DigestState.
//
//   - The telemetry plane (enabled by Config.Wall) additionally samples a
//     wall clock at scope transitions and accumulates per-node wall
//     self-time. Like sim.Meter, it is observe-only: wall values land in
//     profiler-private counters and feed nothing back into the model, so
//     determinism of the simulation is preserved even though the sampled
//     numbers themselves vary run to run. The walltaint analyzer knows
//     prof.Clock as a wall-time source and this package as a sanctioned
//     telemetry destination.
//
// Exports: WritePprof emits the gzip-compressed pprof profile.proto
// encoding (stdlib-only varint encoder, pprof.go) so `go tool pprof
// -top/-flamegraph` reads simulator profiles directly; WriteFolded emits
// folded-stack text for flamegraph tooling and tcndiff's differential
// profile report.
//
// A Profiler, like an Engine, belongs to one goroutine: every counter is
// a plain field. experiments.Obs counts an attached Profiler toward
// Active(), which clamps sweeps to serial execution.
package prof

import (
	"tcn/internal/digest"
	"tcn/internal/sim"
)

// Clock is the wall-clock source the telemetry plane samples, injected by
// the binary (the simclock lint rule bans the time package under
// internal/, and the profiler itself must stay buildable in deterministic-
// only mode). Wall values observed through it are telemetry: they may
// never reach simulator state, only profiler counters.
type Clock func() int64

// Config assembles a Profiler.
type Config struct {
	// Wall, when non-nil, enables the telemetry plane: per-scope wall
	// self-time sampled at scope transitions. Nil keeps the profiler
	// purely deterministic.
	Wall Clock
}

// node is one scope-tree node: a distinct (parent, frame) pair reached at
// least once. Node 0 is the root, frame "engine"; events that fire without
// entering any scope (engine-internal timers, host delay lines) are
// attributed to it.
type node struct {
	parent int32
	frame  int32
	depth  int32
	enters uint64 // scope activations (tree shape / call counts)
	events uint64 // executed events owned by this node
	simNs  int64  // sim-time owned by this node's events
	wallNs int64  // wall self-time (telemetry plane only)
}

// Scope is an interned frame plus a two-way inline cache from parent node
// to child node. Components create scopes once at attach time (strings
// are interned there) and call Enter on the hot path, where the cache
// makes the common case — re-entering the same scope under the same
// parent — two integer compares, no map lookup, no allocation.
type Scope struct {
	p     *Profiler
	frame int32
	p0,
	n0,
	p1,
	n1 int32
}

// Profiler is the cost-attribution tree. The zero value is not usable;
// call New.
type Profiler struct {
	frames []string         // interned frame names; index = frame id
	byName map[string]int32 // frame name -> id
	nodes  []node           // node 0 = root; creation order is deterministic
	child  map[uint64]int32 // (parent<<32 | frame) -> node index, slow path

	// cur is the innermost active scope node; owner is the deepest node
	// reached since the last event boundary — the node the event's cost
	// is attributed to. Both reset to the root after every event.
	cur        int32
	owner      int32
	ownerDepth int32

	// lastSim is the clock value (ns) of the previous attribution point
	// on the currently attached engine; the delta to each event's
	// timestamp is the sim-time that event owns.
	lastSim int64

	wall     Clock
	lastWall int64
}

// New returns an empty profiler with the root "engine" scope at node 0.
func New(cfg Config) *Profiler {
	p := &Profiler{
		byName: make(map[string]int32),
		child:  make(map[uint64]int32),
		wall:   cfg.Wall,
	}
	root := p.intern("engine")
	// The root is its own parent so a stray Exit at depth zero stays at
	// the root instead of indexing off the tree.
	p.nodes = append(p.nodes, node{parent: 0, frame: root, depth: 0})
	if p.wall != nil {
		p.lastWall = p.wall()
	}
	return p
}

// WallEnabled reports whether the telemetry plane is on.
func (p *Profiler) WallEnabled() bool { return p.wall != nil }

// intern returns the id of name, assigning one on first use.
func (p *Profiler) intern(name string) int32 {
	if id, ok := p.byName[name]; ok {
		return id
	}
	id := int32(len(p.frames))
	p.frames = append(p.frames, name)
	p.byName[name] = id
	return id
}

// NewScope interns name and returns a scope handle for it. Call once per
// component at attach time, not on the hot path.
func (p *Profiler) NewScope(name string) *Scope {
	return &Scope{p: p, frame: p.intern(name), p0: -1, p1: -1}
}

// Enter pushes s onto the scope stack. Components call it at the top of
// an instrumented stage and must pair it with exactly one Profiler.Exit
// on every return path (explicit calls, no defer — the hot path cannot
// afford one).
func (s *Scope) Enter() {
	p := s.p
	parent := p.cur
	var n int32
	switch parent {
	case s.p0:
		n = s.n0
	case s.p1:
		n = s.n1
	default:
		n = p.resolve(s, parent)
	}
	nd := &p.nodes[n]
	nd.enters++
	if nd.depth > p.ownerDepth {
		p.owner, p.ownerDepth = n, nd.depth
	}
	if p.wall != nil {
		p.sampleWall(parent)
	}
	p.cur = n
}

// Exit pops the innermost scope.
func (p *Profiler) Exit() {
	cur := p.cur
	if p.wall != nil {
		p.sampleWall(cur)
	}
	p.cur = p.nodes[cur].parent
}

// resolve is Enter's slow path: find or create the (parent, frame) node
// and rotate it into the scope's inline cache. New nodes appear only until
// the tree covers every reached (parent, frame) pair, so steady state
// allocates nothing.
func (p *Profiler) resolve(s *Scope, parent int32) int32 {
	key := uint64(uint32(parent))<<32 | uint64(uint32(s.frame))
	n, ok := p.child[key]
	if !ok {
		n = int32(len(p.nodes))
		p.nodes = append(p.nodes, node{ //tcnlint:hotpath tree grows once per distinct (parent, frame) pair, then the inline caches hit
			parent: parent,
			frame:  s.frame,
			depth:  p.nodes[parent].depth + 1,
		})
		p.child[key] = n
	}
	s.p1, s.n1 = s.p0, s.n0
	s.p0, s.n0 = parent, n
	return n
}

// sampleWall charges the wall time since the last sample to node n and
// restarts the interval (telemetry plane only).
func (p *Profiler) sampleWall(n int32) {
	w := p.wall()
	p.nodes[n].wallNs += w - p.lastWall
	p.lastWall = w
}

// AttachEngine chains the profiler onto eng's post-event hook and rebases
// sim-time attribution at the engine's current clock. Call once per
// engine, right after construction (sweep runners attach each cell's
// engine in turn); pair with FinishEngine after the cell's last RunUntil
// so the final clock advance is accounted.
//
// The hook attributes each executed event — and the sim-time elapsed
// since the previous event — to the deepest scope the event reached, then
// resets the stack to the root. Attribution never schedules, cancels, or
// perturbs the model, so the engine's DigestState is unchanged by it.
func (p *Profiler) AttachEngine(eng *sim.Engine) {
	p.lastSim = int64(eng.Now())
	p.cur, p.owner, p.ownerDepth = 0, 0, 0
	eng.AddPostEvent(func(now sim.Time, _ uint64) {
		nd := &p.nodes[p.owner]
		nd.events++
		nd.simNs += int64(now) - p.lastSim
		p.lastSim = int64(now)
		p.owner, p.ownerDepth = 0, 0
		p.cur = 0
		if p.wall != nil {
			// Residual wall time since the last scope transition — the
			// tail of the callback plus engine dispatch — belongs to the
			// engine itself.
			p.sampleWall(0)
		}
	})
}

// FinishEngine folds the tail of a run into the root scope: sim-time the
// engine advanced past its last executed event (RunUntil's final clock
// move to the deadline) has no owning event, so it is engine time. After
// this call the profiler's per-node sim-time totals sum exactly to the
// engine's elapsed sim-time.
func (p *Profiler) FinishEngine(eng *sim.Engine) {
	if d := int64(eng.Now()) - p.lastSim; d > 0 {
		p.nodes[0].simNs += d
		p.lastSim = int64(eng.Now())
	}
}

// Totals returns the tree-wide sums of the deterministic plane: events
// attributed and sim-time owned. After FinishEngine, simNs equals the sum
// of elapsed sim-time across every attached engine.
func (p *Profiler) Totals() (events uint64, simNs int64) {
	for i := range p.nodes {
		events += p.nodes[i].events
		simNs += p.nodes[i].simNs
	}
	return events, simNs
}

// Nodes returns the number of scope-tree nodes (distinct stacks reached).
func (p *Profiler) Nodes() int { return len(p.nodes) }

// DigestState folds the deterministic plane into a digest: the interned
// frame table and, per node, its position in the tree and its event and
// sim-time attribution. Wall self-time is telemetry and deliberately
// excluded — two byte-identical runs digest identically even with the
// telemetry plane on. Node order is creation order, which is a function
// of the event history alone, so the digest is deterministic.
func (p *Profiler) DigestState(h *digest.Hash) {
	h.WriteInt(len(p.frames))
	for _, f := range p.frames {
		h.WriteString(f)
	}
	h.WriteInt(len(p.nodes))
	for i := range p.nodes {
		n := &p.nodes[i]
		h.WriteInt(int(n.parent))
		h.WriteInt(int(n.frame))
		h.WriteUint64(n.enters)
		h.WriteUint64(n.events)
		h.WriteInt64(n.simNs)
	}
}

// stackOf appends node n's frame path, root first, to buf and returns it.
func (p *Profiler) stackOf(buf []int32, n int32) []int32 {
	start := len(buf)
	for {
		buf = append(buf, p.nodes[n].frame)
		if n == 0 {
			break
		}
		n = p.nodes[n].parent
	}
	// Reverse the appended leaf-first segment into root-first order.
	for i, j := start, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}

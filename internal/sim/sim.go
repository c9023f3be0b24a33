// Package sim provides the discrete-event simulation engine that underlies
// every experiment in this repository.
//
// The engine keeps a virtual clock in integer nanoseconds and a store of
// pending events. Events scheduled for the same instant fire in the order
// they were scheduled (a monotonically increasing sequence number breaks
// ties), which makes every simulation fully deterministic for a given seed.
//
// The store is a hierarchical timing wheel (wheel.go): near-constant-time
// schedule, cancel, and fire for the short-horizon events that dominate
// simulations — serialization, token refill, RTO arm/disarm, sampler
// ticks. Its bottom level is a ring of 64 ns buckets, each kept sorted by
// (at, seq), from whose earliest head the engine fires one event at a
// time; upper levels placed by block distance from the cursor cascade far
// timers down, and a sorted spill list holds what lies beyond the
// horizon. The tests pin the (at, seq) order against a small reference
// model of the contract (equiv_test.go) and pin whole runs with golden
// fingerprints.
//
// The event store is allocation-free in steady state: fired and canceled
// events return to a per-engine freelist and are handed out again by the
// next At/After call. Event structs must keep stable addresses so EventRef
// can refer to them across store moves, which is why the wheel links the
// freelist's nodes rather than holding event values; a generation counter
// on each node keeps stale references (to events that have since fired,
// been canceled, and been reissued) from acting on the wrong event.
//
// An Engine and everything scheduled on it belong to exactly one goroutine.
// Engines, their freelists, and the *Rand feeding an experiment must never
// be shared across goroutines — the tcnlint goshare analyzer enforces this,
// and the parallel sweep executor (internal/parallel) relies on it: one
// fully independent Engine per sweep point is what makes concurrent points
// byte-identical to serial execution.
package sim

import (
	"fmt"
	"math"

	"tcn/internal/digest"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It doubles as a duration; helper constructors are provided for
// common units.
type Time int64

// Common durations expressed as Time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable instant; used as "never".
const MaxTime Time = math.MaxInt64

// Microseconds reports t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds reports t as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit, e.g. "125us" or "1.5ms".
func (t Time) String() string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3gus", t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%.4gms", t.Milliseconds())
	default:
		return fmt.Sprintf("%.6gs", t.Seconds())
	}
}

// event is a scheduled callback. Nodes are owned by one engine and recycled
// through its freelist: gen increments every time a node is retired (fired
// or canceled), invalidating any EventRef still pointing at it. Exactly one
// of fn and afn is set; afn carries its argument in arg so per-packet
// scheduling needs no closure allocation.
type event struct {
	at   Time
	seq  uint64
	gen  uint64
	slot int32  // flat wheel slot index, or slotNone/slotSpill
	next *event // slot/spill list links
	prev *event
	fn   func()
	afn  func(any)
	arg  any
}

// EventRef refers to a scheduled event so it can be canceled or inspected.
// The zero value is an invalid reference. References stay cheap to copy and
// safe to keep: once the event fires or is canceled the reference goes
// stale (Pending reports false) and every operation on it is a no-op, even
// after the engine reissues the underlying storage to a new event.
type EventRef struct {
	ev  *event
	gen uint64
}

// Valid reports whether the reference ever pointed at an event (the zero
// value did not). A valid reference may still be stale; see Pending.
func (r EventRef) Valid() bool { return r.ev != nil }

// Pending reports whether the event is still waiting to fire (not canceled,
// not yet executed, not superseded by a recycled node).
func (r EventRef) Pending() bool { return r.ev != nil && r.ev.gen == r.gen }

// At reports the instant the event is scheduled for, or 0 once the
// reference is stale.
func (r EventRef) At() Time {
	if !r.Pending() {
		return 0
	}
	return r.ev.at
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all callbacks run on the goroutine that calls Run.
type Engine struct {
	now     Time
	seq     uint64
	wheel   *wheel
	free    []*event // retired nodes awaiting reuse
	stopped bool

	// Executed counts events that have fired, for progress reporting and
	// runaway detection in tests.
	Executed uint64

	// Self-telemetry counters (internal/obs/perf reads them). All are
	// plain fields bumped inline on the hot path — no atomics, no
	// allocations — and belong to the engine's owning goroutine like
	// everything else here.
	scheduled uint64 // events handed out by At/AtArg
	canceled  uint64 // live events removed by Cancel
	recycled  uint64 // alloc calls satisfied from the freelist
	pendMax   int    // pending-event high-water mark

	// pendSum is a commutative accumulator over the pending multiset:
	// scheduling adds a mix of (at, seq), retiring subtracts it. Order-
	// independent, so it depends on the schedule history alone, and
	// DigestState stays O(1) in the pending count — which matters because
	// fine-mode fingerprinting digests the engine after every event. Only
	// DigestState reads it, so it stays off (pendOn false) until the first
	// call, which sums the pending set once; see pendingSum.
	pendSum uint64
	pendOn  bool

	// meter, when set, receives batched event counts so another
	// goroutine can watch progress live; see Meter.
	meter        *Meter
	meterPend    uint64
	meterLastNow Time

	// postEvent, when set, runs after every executed event — the hook the
	// run-fingerprinting fine mode uses to digest per-event state and the
	// cost profiler uses to attribute elapsed sim-time. Costs one nil
	// check per event when unset; see AddPostEvent.
	postEvent PostEventHook

	// tickers lists the running Every tickers. Each has exactly one tick
	// pending, so a firing tick that sees Len() == len(tickers)-1 knows
	// nothing but ticks is left to happen; tickersDone counts the tickers
	// that have ticked since then.
	tickers     []*ticker
	tickersDone int
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{wheel: newWheel()} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Len returns the number of pending events. Canceled events are removed
// from the store eagerly, so they are never counted.
func (e *Engine) Len() int {
	w := e.wheel
	return w.pending + w.spillCount
}

// pendMix folds an event's identity into the pendSum accumulator. The
// splitmix64-style finalizer spreads (at, seq) so colliding multisets
// cancel only if they are equal.
func pendMix(at Time, seq uint64) uint64 {
	x := uint64(at)*0x9E3779B97F4A7C15 ^ seq
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// pendingSum returns the pendSum accumulator, switching it on first: the
// first call sums the pending multiset once, and alloc and retire keep it
// current from then on. Runs nobody digests never pay for it.
func (e *Engine) pendingSum() uint64 {
	if !e.pendOn {
		e.pendSum = e.wheel.sumPending()
		e.pendOn = true
	}
	return e.pendSum
}

// alloc hands out an event node, reusing a retired one when available.
func (e *Engine) alloc(t Time) *event {
	var ev *event
	e.scheduled++
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.recycled++
	} else {
		ev = &event{}
	}
	ev.at = t
	ev.seq = e.seq
	e.seq++
	if e.pendOn {
		e.pendSum += pendMix(ev.at, ev.seq)
	}
	return ev
}

// retire invalidates every outstanding EventRef to ev and returns the node
// to the freelist. The callback fields are cleared so the freelist does not
// pin closures or packet arguments beyond the event's life.
func (e *Engine) retire(ev *event) {
	if e.pendOn {
		e.pendSum -= pendMix(ev.at, ev.seq)
	}
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	ev.gen++
	ev.slot = slotNone
	ev.next = nil
	ev.prev = nil
	e.free = append(e.free, ev) //tcnlint:hotpath freelist grows only until the event population peaks, then recycles
}

// enqueue files a freshly allocated event into the wheel and advances
// the pending high-water mark.
func (e *Engine) enqueue(ev *event) {
	e.wheel.place(ev)
	if l := e.Len(); l > e.pendMax {
		e.pendMax = l
	}
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a logic error in a model.
func (e *Engine) At(t Time, fn func()) EventRef {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc(t)
	ev.fn = fn
	e.enqueue(ev)
	return EventRef{ev, ev.gen}
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) EventRef {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// AtArg schedules fn(arg) at absolute time t. Unlike At with a closure over
// arg, the argument rides inside the event node, so callers that schedule
// per-packet work (links, host delay lines) can hold one long-lived fn and
// stay allocation-free: boxing a pointer into the arg interface does not
// allocate.
func (e *Engine) AtArg(t Time, fn func(any), arg any) EventRef {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc(t)
	ev.afn = fn
	ev.arg = arg
	e.enqueue(ev)
	return EventRef{ev, ev.gen}
}

// AfterArg schedules fn(arg) to run d nanoseconds from now; see AtArg.
func (e *Engine) AfterArg(d Time, fn func(any), arg any) EventRef {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.AtArg(e.now+d, fn, arg)
}

// Every runs fn at the current instant and then every period, for as long
// as the model has work left. Each tick is one ordinary event, scheduled
// exactly as a callback that re-arms itself with After(period) would be,
// so the ticks interleave with model events in the same (at, seq) order
// and each fn call sees the engine exactly as under that idiom. Once only
// ticks are pending, every ticker still ticks once more, so each observer
// samples the state the model left behind; the tick that completes that
// round stops all the engine's tickers and cancels their pending ticks.
// Periodic observers (probes, digest epochs) therefore end within the
// longest period after the last model event instead of keeping a run
// alive until its deadline, and several tickers never keep each other
// alive. Once stopped
// a ticker stays stopped, even if the caller later schedules more model
// events and runs again. A non-positive period panics.
func (e *Engine) Every(period Time, fn func()) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive tick period %v", period))
	}
	t := &ticker{e: e, period: period, fn: fn}
	e.tickers = append(e.tickers, t)
	t.next = e.AfterArg(0, fireTick, t)
}

// ticker is one Every registration.
type ticker struct {
	e      *Engine
	period Time
	fn     func()
	next   EventRef // the pending tick
	done   bool     // has ticked with nothing but ticks pending
}

// fireTick runs one Every tick; see Every.
func fireTick(arg any) {
	t := arg.(*ticker)
	e := t.e
	t.fn()
	// The firing tick is no longer pending, so the others number
	// len(tickers)-1.
	if e.Len() != len(e.tickers)-1 {
		// Model work is pending: every ticker must tick again after it.
		if e.tickersDone > 0 {
			for _, o := range e.tickers {
				o.done = false
			}
			e.tickersDone = 0
		}
	} else if !t.done {
		t.done = true
		e.tickersDone++
		if e.tickersDone == len(e.tickers) {
			for _, o := range e.tickers {
				e.Cancel(o.next) // t's own tick has fired: a no-op
			}
			e.tickers, e.tickersDone = nil, 0
			return
		}
	}
	t.next = e.AfterArg(t.period, fireTick, t)
}

// Cancel prevents a pending event from firing by removing it from the
// store immediately (its node is recycled at once). Canceling an already-
// fired, already-canceled, or zero reference is a no-op. This is O(1) —
// the RTO arm/disarm churn of every ACK pays two pointer unlinks.
func (e *Engine) Cancel(r EventRef) {
	if r.ev == nil || r.ev.gen != r.gen {
		return
	}
	e.canceled++
	e.wheel.unqueue(r.ev)
	e.retire(r.ev)
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// PostEventHook observes one executed event. It receives the clock (at
// the event's timestamp) and the total executed-event count, both already
// advanced past the event, so consumers need no engine accessor calls on
// the per-event path.
type PostEventHook func(now Time, executed uint64)

// AddPostEvent installs fn to run after every executed event, chained
// after any hook already installed, so independent per-event observers
// (fine-mode fingerprinting and the profiler, say) can coexist. The hook
// runs with the clock at the event's timestamp, after the event's
// callback and counters; it must not schedule, cancel, or otherwise
// perturb the model — it exists so observers that need per-event
// granularity can read state between events. Hooks are not part of
// DigestState: attaching one cannot change a run's fingerprint unless the
// hook itself perturbs the model. Composition happens here, at attach
// time: the hot loop still pays exactly one nil check and one indirect
// call per event. Passing nil is a no-op.
func (e *Engine) AddPostEvent(fn PostEventHook) {
	if fn == nil {
		return
	}
	prev := e.postEvent
	if prev == nil {
		e.postEvent = fn
		return
	}
	e.postEvent = func(now Time, executed uint64) {
		prev(now, executed)
		fn(now, executed)
	}
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() { e.RunUntil(MaxTime) }

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline (if the queue drained earlier the clock stays at the
// last event). It returns the number of events executed during this call.
//
// Cancellation is eager (Cancel removes events from the store on the
// spot), so every event executed here is live — there is no canceled-event
// skip. Each node is retired before its callback runs: the callback may
// reuse the storage for the events it schedules, and a self-referencing
// EventRef (a timer canceling itself from its own handler) is already
// stale by the time the handler executes.
//
// Every exit checks the engine's conservation law: each scheduled event
// has fired, been canceled, or is still pending. A violation panics with
// the four counts; the check is one comparison per call, so it runs in
// every build.
func (e *Engine) RunUntil(deadline Time) uint64 {
	e.stopped = false
	n := e.runWheel(deadline)
	if deadline != MaxTime && e.now < deadline && !e.stopped {
		e.now = deadline
	}
	if e.meter != nil {
		e.flushMeter()
	}
	// The arguments are built only on failure: boxing them would allocate
	// on every call and break the engine's zero-alloc pins.
	if e.scheduled != e.Executed+e.canceled+uint64(e.Len()) {
		panic(fmt.Sprintf("sim: scheduled %d != executed %d + canceled %d + pending %d",
			e.scheduled, e.Executed, e.canceled, e.Len()))
	}
	return n
}

// NextEventTime reports the timestamp of the earliest pending event. The
// lookup only reads the wheel, so events scheduled afterwards, even before
// the reported instant, still fire in time order. It may be called from
// inside a callback.
func (e *Engine) NextEventTime() (Time, bool) { return e.wheel.peek() }

// Self-telemetry accessors; see internal/obs/perf for the layer that
// aggregates them across a campaign.

// Scheduled returns the number of events handed out by At/After/AtArg/
// AfterArg since the engine was created.
func (e *Engine) Scheduled() uint64 { return e.scheduled }

// Canceled returns the number of live events removed by Cancel.
func (e *Engine) Canceled() uint64 { return e.canceled }

// Recycled returns the number of scheduled events whose node came from
// the freelist rather than a fresh allocation. Scheduled-Recycled is the
// engine's total event allocations.
func (e *Engine) Recycled() uint64 { return e.recycled }

// PendingHighWater returns the largest number of simultaneously pending
// events observed.
func (e *Engine) PendingHighWater() int { return e.pendMax }

// Cascades returns the number of events the wheel re-placed downward
// while crossing window boundaries.
func (e *Engine) Cascades() uint64 { return e.wheel.cascaded }

// Spills returns the number of events scheduled beyond the wheel horizon
// onto the sorted spill list.
func (e *Engine) Spills() uint64 { return e.wheel.spilled }

// FreelistLen returns the number of retired event nodes currently parked
// for reuse.
func (e *Engine) FreelistLen() int { return len(e.free) }

// DigestState folds the engine's scheduling state into a run fingerprint:
// the clock, the counters, the pending multiset (via the commutative
// pendSum accumulator plus its count and high-water mark), and the
// freelist's generation counters. Every field is a function of the
// schedule/fire/cancel history alone — not of the wheel's internal
// layout — so two byte-identical runs digest identically, and any
// divergence in event timing or ordering shows up at the epoch it happens. The accumulator
// keeps the digest O(1) in the pending count after the first call (which
// sums the pending set once), and fine-mode fingerprinting (one engine
// digest per event) depends on that.
func (e *Engine) DigestState(h *digest.Hash) {
	h.WriteInt64(int64(e.now))
	h.WriteUint64(e.seq)
	h.WriteUint64(e.Executed)
	h.WriteUint64(e.scheduled)
	h.WriteUint64(e.canceled)
	h.WriteUint64(e.recycled)
	h.WriteInt(e.pendMax)
	h.WriteInt(e.Len())
	h.WriteUint64(e.pendingSum())
	h.WriteInt(len(e.free))
	for _, ev := range e.free {
		h.WriteUint64(ev.gen)
	}
}

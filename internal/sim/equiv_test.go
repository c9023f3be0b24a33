package sim

import (
	"fmt"
	"testing"
)

// The engine must implement the scheduling contract exactly: pending events
// fire in (at, seq) order, every callback sees the clock at its event's
// instant, Cancel of a live event removes it and of anything else is a
// no-op, and Stop ends a run after the current callback. These tests drive
// the engine and refModel — a deliberately naive model of that contract —
// with byte-identical op streams (same-tick bursts, two instants of one
// bucket scheduled in reverse, an At(now) echo ahead of a later event of
// its bucket, block starts of two levels that coincide, cascade-crossing
// horizons, beyond-horizon spills, stale cancels) and compare the firing
// logs and the engine state after every op. The test names predate the
// reference model: the wheel was first checked against the binary-heap
// store it replaced, whose order the model pins.

// equivFiring records one callback execution: which event fired and when.
type equivFiring struct {
	tag int64
	at  Time
}

// equivPeek is one NextEventTime answer.
type equivPeek struct {
	at Time
	ok bool
}

// equivState is the engine state the model predicts after each op.
type equivState struct {
	now                           Time
	scheduled, executed, canceled uint64
	pending, pendMax              int
	pendSum                       uint64
}

// equivMix derives per-event deterministic "randomness" from the event's
// tag, so decisions made inside callbacks do not depend on a shared
// generator (whose state would otherwise couple the two runs through the
// very ordering property under test).
func equivMix(tag int64) uint64 {
	x := uint64(tag) * 0x9E3779B97F4A7C15
	x ^= x >> 32
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 32
	return x
}

// equivDeltas are the horizon buckets a schedule op draws from: same tick,
// sub-slot, level-0 direct, level-1, level-2, level-3, and past the wheel
// horizon (spill list).
var equivDeltas = [...]Time{
	0,
	1,
	50,
	5 * Microsecond,
	500 * Microsecond,
	50 * Millisecond,
	20 * Second,
	Time(1) << 41,
	Time(1) << 45,
}

// opTarget is what an op stream drives: the engine or the reference model.
// Handles number the scheduled events in scheduling order; fire runs the
// workload's callback for a tag.
type opTarget interface {
	now() Time
	schedule(d Time, tag int64)
	cancel(handle int)
	runUntil(deadline Time)
	stop()
	peek() equivPeek
	state() equivState
}

// newTarget builds a fresh target that calls fire when an event fires.
type newTarget func(fire func(tag int64)) opTarget

// engineTarget adapts the engine to opTarget.
type engineTarget struct {
	e    *Engine
	fire func(any)
	refs []EventRef
}

func newEngineTarget(fire func(tag int64)) opTarget {
	return &engineTarget{e: NewEngine(), fire: func(v any) { fire(v.(int64)) }}
}

func (t *engineTarget) now() Time { return t.e.Now() }
func (t *engineTarget) schedule(d Time, tag int64) {
	t.refs = append(t.refs, t.e.AfterArg(d, t.fire, tag))
}
func (t *engineTarget) cancel(h int)           { t.e.Cancel(t.refs[h]) }
func (t *engineTarget) runUntil(deadline Time) { t.e.RunUntil(deadline) }
func (t *engineTarget) stop()                  { t.e.Stop() }
func (t *engineTarget) peek() equivPeek {
	at, ok := t.e.NextEventTime()
	return equivPeek{at, ok}
}
func (t *engineTarget) state() equivState {
	e := t.e
	return equivState{e.Now(), e.Scheduled(), e.Executed, e.Canceled(), e.Len(), e.PendingHighWater(), e.pendingSum()}
}

// refModel is the reference: a pending slice searched by a linear min scan
// over (at, seq). It has to be obviously right, not fast.
type refModel struct {
	clock    Time
	seq      uint64
	pending  []refEvent
	handles  []uint64 // seq of each scheduled event, by handle
	stopped  bool
	fire     func(tag int64)
	executed uint64
	canceled uint64
	pendMax  int
}

type refEvent struct {
	at  Time
	seq uint64
	tag int64
}

func newRefModel(fire func(tag int64)) opTarget { return &refModel{fire: fire} }

func (m *refModel) now() Time { return m.clock }

func (m *refModel) schedule(d Time, tag int64) {
	m.pending = append(m.pending, refEvent{m.clock + d, m.seq, tag})
	m.handles = append(m.handles, m.seq)
	m.seq++
	m.pendMax = max(m.pendMax, len(m.pending))
}

func (m *refModel) cancel(h int) {
	for i, ev := range m.pending {
		if ev.seq == m.handles[h] {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			m.canceled++
			return
		}
	}
}

func (m *refModel) runUntil(deadline Time) {
	m.stopped = false
	for !m.stopped && len(m.pending) > 0 {
		first := 0
		for i, ev := range m.pending {
			if ev.at < m.pending[first].at || (ev.at == m.pending[first].at && ev.seq < m.pending[first].seq) {
				first = i
			}
		}
		ev := m.pending[first]
		if ev.at > deadline {
			break
		}
		m.pending = append(m.pending[:first], m.pending[first+1:]...)
		m.clock = ev.at
		m.executed++
		m.fire(ev.tag)
	}
	if deadline != MaxTime && m.clock < deadline && !m.stopped {
		m.clock = deadline
	}
}

func (m *refModel) stop() { m.stopped = true }

func (m *refModel) peek() equivPeek {
	if len(m.pending) == 0 {
		return equivPeek{}
	}
	at := m.pending[0].at
	for _, ev := range m.pending {
		at = min(at, ev.at)
	}
	return equivPeek{at, true}
}

func (m *refModel) state() equivState {
	var sum uint64
	for _, ev := range m.pending {
		sum += pendMix(ev.at, ev.seq)
	}
	return equivState{m.clock, m.seq, m.executed, m.canceled, len(m.pending), m.pendMax, sum}
}

// equivRun is one op stream's trace: the firing log, the peeked instants,
// and the state after every top-level op.
type equivRun struct {
	log    []equivFiring
	peeks  []equivPeek
	states []equivState
}

// opStream drives one target. Callbacks log their firing. With react set
// they may also schedule a follow-up or cancel an arbitrary handle (often
// stale, which must be harmless), deciding from the tag alone so both
// targets see identical work. stopTag, when >= 0, names an event whose
// callback schedules one more event at the current instant and calls Stop.
// then names events whose callback schedules one more event at the given
// instant.
type opStream struct {
	tgt     opTarget
	run     equivRun
	nextTag int64
	react   bool
	stopTag int64
	then    map[int64]Time
}

func newOpStream(mk newTarget, react bool, stopTag int64) *opStream {
	s := &opStream{react: react, stopTag: stopTag, then: map[int64]Time{}}
	s.tgt = mk(s.fire)
	return s
}

func (s *opStream) fire(tag int64) {
	s.run.log = append(s.run.log, equivFiring{tag, s.tgt.now()})
	if at, ok := s.then[tag]; ok {
		s.scheduleAt(at)
	}
	if tag == s.stopTag {
		// A same-instant event scheduled before the Stop sorts behind
		// the rest of the burst, which must still fire first.
		s.schedule(0)
		s.tgt.stop()
	}
	if !s.react {
		return
	}
	m := equivMix(tag)
	if m%3 == 0 {
		s.schedule(equivDeltas[(m>>8)%uint64(len(equivDeltas))])
	}
	if m%7 == 0 && s.nextTag > 0 {
		s.tgt.cancel(int((m >> 16) % uint64(s.nextTag)))
	}
}

// peek records the target's earliest pending instant. It must change
// nothing: later ops, even schedules before the peeked instant, run as if
// it never happened.
func (s *opStream) peek() {
	s.run.peeks = append(s.run.peeks, s.tgt.peek())
}

func (s *opStream) schedule(d Time) {
	s.tgt.schedule(d, s.nextTag)
	s.nextTag++
}

func (s *opStream) scheduleAt(at Time) { s.schedule(at - s.tgt.now()) }

// bucketStart returns the first level-0 bucket boundary at or after
// now+d.
func (s *opStream) bucketStart(d Time) Time {
	const width = Time(1) << l0Shift
	return (s.tgt.now() + d + width - 1) &^ (width - 1)
}

// reversePair schedules two instants of one level-0 bucket, the later
// one first: the bucket must sort them by time, not by arrival.
func (s *opStream) reversePair(d Time) {
	b := s.bucketStart(d)
	s.scheduleAt(b + 1<<l0Shift - 1)
	s.scheduleAt(b)
}

// echoAhead schedules an event whose callback schedules At(now) while a
// later event of the same bucket waits: the echo must fire between them.
func (s *opStream) echoAhead(d Time) {
	b := s.bucketStart(d)
	s.then[s.nextTag] = b
	s.scheduleAt(b)
	s.scheduleAt(b + 1<<l0Shift - 1)
}

// coincide makes a level-lvl block (a bucket when lvl is 0) and a
// level-(lvl+1) block start at the same instant S: one event at S goes
// to level lvl+1 now, and a
// trigger half a level-(lvl+1) block earlier schedules a second event at
// S, which lands at level lvl. The first, with the smaller seq, must fire
// first.
func (s *opStream) coincide(lvl int) {
	sh := hiShift(lvl + 1)
	start := (s.tgt.now()>>sh + 2) << sh
	s.scheduleAt(start)
	s.then[s.nextTag] = start
	s.scheduleAt(start - 1<<(sh-1))
}

// op ends one top-level op: it asserts the conservation law and records
// the state.
func (s *opStream) op(t *testing.T) {
	st := s.tgt.state()
	if st.scheduled != st.executed+st.canceled+uint64(st.pending) {
		t.Fatalf("conservation broken after op %d: scheduled %d != executed %d + canceled %d + pending %d",
			len(s.run.states), st.scheduled, st.executed, st.canceled, st.pending)
	}
	s.run.states = append(s.run.states, st)
}

// compareRuns fails on the first difference between the engine's trace and
// the model's.
func compareRuns(t *testing.T, what string, eng, ref equivRun) {
	t.Helper()
	for i := 0; i < min(len(eng.log), len(ref.log)); i++ {
		if eng.log[i] != ref.log[i] {
			t.Fatalf("%s: firing %d diverged: engine %+v, reference %+v", what, i, eng.log[i], ref.log[i])
		}
	}
	if len(eng.log) != len(ref.log) {
		t.Fatalf("%s: engine fired %d events, reference %d", what, len(eng.log), len(ref.log))
	}
	for i := range eng.peeks {
		if eng.peeks[i] != ref.peeks[i] {
			t.Fatalf("%s: peek %d diverged: engine %+v, reference %+v", what, i, eng.peeks[i], ref.peeks[i])
		}
	}
	for i := range eng.states {
		if eng.states[i] != ref.states[i] {
			t.Fatalf("%s: state after op %d diverged:\nengine    %+v\nreference %+v", what, i, eng.states[i], ref.states[i])
		}
	}
}

// runEquivWorkload drives one target through ops pseudo-random steps plus a
// final drain. All control flow comes from the op-stream generator r
// (outside callbacks) or from equivMix (inside callbacks), so the engine
// and the model see byte-identical workloads.
func runEquivWorkload(t *testing.T, mk newTarget, seed int64, ops int) equivRun {
	s := newOpStream(mk, true, -1)
	r := NewRand(seed)
	for i := 0; i < ops; i++ {
		switch c := r.Range(0, 100); {
		case c < 50:
			s.schedule(equivDeltas[r.Range(0, len(equivDeltas)-1)])
		case c < 58:
			// Same-tick burst: several events at one instant must fire
			// in scheduling order.
			d := equivDeltas[r.Range(0, len(equivDeltas)-1)]
			for k := r.Range(2, 6); k > 0; k-- {
				s.schedule(d)
			}
		case c < 61:
			s.reversePair(equivDeltas[r.Range(0, len(equivDeltas)-1)])
		case c < 64:
			s.echoAhead(equivDeltas[r.Range(0, len(equivDeltas)-1)])
		case c < 65:
			s.coincide(r.Range(0, 2))
		case c < 80:
			if s.nextTag > 0 {
				s.tgt.cancel(r.Range(0, int(s.nextTag)-1))
			}
		default:
			s.tgt.runUntil(s.tgt.now() + Time(r.Range(0, int(2*Millisecond))))
			// A peek between runs is where a cursor-moving lookup would
			// strand the schedules that follow it.
			s.peek()
		}
		s.op(t)
	}
	s.tgt.runUntil(MaxTime)
	s.op(t)
	return s.run
}

// TestWheelHeapEquivalence is the property test: across seeds, the engine
// and the reference model must fire the same events in the same order at
// the same clock, and agree on the engine state after every op.
func TestWheelHeapEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		eng := runEquivWorkload(t, newEngineTarget, seed, 2000)
		ref := runEquivWorkload(t, newRefModel, seed, 2000)
		compareRuns(t, fmt.Sprintf("seed %d", seed), eng, ref)
		if len(eng.log) == 0 {
			t.Fatalf("seed %d: workload fired no events", seed)
		}
	}
}

// TestWheelHeapEquivalenceStop checks Stop and resume: a callback in the
// middle of a same-instant burst schedules one more event at that instant
// and stops the engine, and the engine and the model must agree on what
// has and has not fired when the run resumes.
func TestWheelHeapEquivalenceStop(t *testing.T) {
	const stopTag = 5
	run := func(mk newTarget) equivRun {
		s := newOpStream(mk, false, stopTag)
		// A same-instant burst with a Stop in the middle (tags 0-9), then
		// one later event.
		for i := 0; i < 10; i++ {
			s.schedule(10 * Nanosecond)
		}
		s.schedule(20 * Nanosecond)
		s.op(t)
		s.tgt.runUntil(MaxTime) // runs until the Stop
		s.op(t)
		// Schedule more same-instant events while the remainder waits,
		// then drain: the remainder must still fire first (smaller
		// seq).
		s.schedule(0)
		s.op(t)
		s.tgt.runUntil(MaxTime)
		s.op(t)
		return s.run
	}
	eng, ref := run(newEngineTarget), run(newRefModel)
	compareRuns(t, "stop", eng, ref)
	if got := eng.states[1].executed; got != stopTag+1 {
		t.Fatalf("engine ran %d events before the Stop, want %d", got, stopTag+1)
	}
}

// FuzzWheelHeapEquivalence interprets the fuzz input as an op stream and
// checks the engine against the reference model on it. Each byte pair is
// one op: schedule at one of the delta buckets, cancel a handle, run a
// bounded chunk, peek at the earliest pending instant, or one of the
// bucket-order and coinciding-block cases.
func FuzzWheelHeapEquivalence(f *testing.F) {
	// Each seed's op bytes are chosen for what they decode to: schedule,
	// peek, cancel, schedule, cancel.
	f.Add([]byte{0x00, 0x01, 0x24, 0x53, 0x82, 0xb5, 0xe0, 0x17, 0x4a, 0x79})
	// Schedule at 50 ns, run a bounded 252 us, schedule twice at the
	// cursor's instant.
	f.Add([]byte{0xf8, 0xfe, 0xfb, 0xfc, 0x00, 0x00, 0x00, 0x00})
	// Schedule, cancel, run, peek, schedule.
	f.Add([]byte{0x11, 0x90, 0x22, 0xa0, 0x33, 0xb0, 0x44, 0xc0, 0x50, 0xd0})
	// Schedule at 5 us, peek, schedule at 50 ns, drain: the peek must not
	// strand the earlier event.
	f.Add([]byte{0x00, 0x03, 0x04, 0x00, 0x00, 0x02})
	// The bucket-order cases around a bounded run: a reversed pair at
	// 50 ns, an echo ahead of a later event at 5 us, a bucket and a
	// level-1 block starting together, a 1 us run, coinciding level-1 and
	// level-2 blocks, coinciding level-2 and level-3 blocks, a reversed
	// pair at 5 us and an echo in the current bucket.
	f.Add([]byte{0x05, 0x02, 0x06, 0x03, 0x07, 0x00, 0x03, 0x01, 0x07, 0x01, 0x07, 0x02, 0x05, 0x03, 0x06, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		run := func(mk newTarget) equivRun {
			s := newOpStream(mk, false, -1)
			for i := 0; i+1 < len(data); i += 2 {
				op, arg := data[i], data[i+1]
				switch op % 8 {
				case 0, 1:
					s.schedule(equivDeltas[int(arg)%len(equivDeltas)])
				case 2:
					if s.nextTag > 0 {
						s.tgt.cancel(int(arg) % int(s.nextTag))
					}
				case 3:
					s.tgt.runUntil(s.tgt.now() + Time(arg)*Microsecond)
				case 4:
					s.peek()
				case 5:
					s.reversePair(equivDeltas[int(arg)%len(equivDeltas)])
				case 6:
					s.echoAhead(equivDeltas[int(arg)%len(equivDeltas)])
				case 7:
					s.coincide(int(arg) % 3)
				}
				s.op(t)
			}
			s.tgt.runUntil(MaxTime)
			s.op(t)
			return s.run
		}
		compareRuns(t, "fuzz", run(newEngineTarget), run(newRefModel))
	})
}

// TestPendingSumSwitchesOnMidRun switches the pending-set accumulator on
// from inside a same-instant run, with events pending at every wheel
// level, on the spill list, and later in the run (one of them canceled
// just before), and checks it against an engine that kept the sum from
// the start.
func TestPendingSumSwitchesOnMidRun(t *testing.T) {
	run := func(eager bool) (mid, end uint64) {
		e := NewEngine()
		if eager {
			e.pendingSum()
		}
		for _, d := range equivDeltas {
			e.After(d+7, func() {})
		}
		var victim EventRef
		e.At(100*Nanosecond, func() {
			e.Cancel(victim)
			e.After(3*Microsecond, func() {})
			mid = e.pendingSum()
		})
		e.At(100*Nanosecond, func() {})
		victim = e.At(100*Nanosecond, func() {})
		e.At(100*Nanosecond, func() {})
		e.RunUntil(100 * Millisecond)
		return mid, e.pendingSum()
	}
	lazyMid, lazyEnd := run(false)
	eagerMid, eagerEnd := run(true)
	if lazyMid != eagerMid || lazyEnd != eagerEnd {
		t.Fatalf("lazy sum %x/%x, eager %x/%x", lazyMid, lazyEnd, eagerMid, eagerEnd)
	}
	if lazyMid == lazyEnd {
		t.Fatal("the pending set did not change between the two reads")
	}
}

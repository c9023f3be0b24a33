package sim

import "math/bits"

// The hierarchical timing wheel. A narrow bottom level of 256 sorted
// buckets and three 1024-slot upper levels:
//
//	level 0: 64 ns buckets,  window ~16.4 us  (serialization, link delays, same-instant bursts)
//	level 1: ~16.4 us slots, window ~16.8 ms  (RTTs, RTO timers, sampler ticks)
//	level 2: ~16.8 ms slots, window ~17.2 s   (epoch snapshots, run phases)
//	level 3: ~17.2 s slots,  window ~4.9 h    (whole-run horizons)
//
// Each level is a ring of blocks: level L cuts time into blocks of 2^shift
// ns (l0Shift at level 0, hiShift(L) above), and an event at absolute
// time t goes to the lowest level whose block distance from the scan
// cursor cur, t>>shift - cur>>shift, is below the level's slot count, at
// slot (t >> shift) & mask. A level therefore holds the blocks from the
// cursor's onwards, so a near event lands at level 0 whichever
// block boundary it crosses: serialization and link timers never
// cascade. Events beyond the level-3 window go to a spill list kept
// sorted by (at, seq).
//
// A level-0 bucket holds every pending event of its 64 ns block as one
// doubly-linked list sorted by (at, seq), and placement walks it from
// the tail: new events carry the largest seq and mostly the latest time,
// so the walk is short. The engine fires one event at a time from the
// head of the earliest bucket, so an At(now) from a callback lands behind
// the current instant's other events and ahead of later instants in the
// same bucket, exactly where (at, seq) order puts it. 64 ns buckets keep
// the array at 4 KB; narrower ones shorten the walk (0.57 nodes per
// insert at 64 ns, 0.11 at 16 ns on fig10-leafspine) without a measurable
// speed-up (EXPERIMENTS.md, "Level-0 bucket width").
//
// The upper slots are plain unsorted lists. A slot of level L+1 covers
// exactly one level-L block width, so when the cursor reaches the start
// of its block the slot cascades: each event is placed again, landing at
// level L or lower. Upper-level events are never in the cursor's own
// block at their level (they would have fit a lower level), so the
// earliest pending event is either the earliest bucket's head or inside
// some upper level's first occupied block. findNext fires the bucket head
// while it lies before every upper block start (and the spill head); on a
// tie the block cascades first, since it may hold an earlier seq at that
// instant. Tied blocks of different levels may cascade in either order:
// what they hold sorts into level 0 before that instant fires. hiNext
// caches a lower bound of those starts, so most events skip the upper
// levels' scan (EXPERIMENTS.md, "Level-0 bucket width").
const (
	l0Shift = 6  // level-0 bucket width: 64 ns
	l0Bits  = 14 // level-0 window: 2^14 ns
	l0Slots = 1 << (l0Bits - l0Shift)
	l0Mask  = l0Slots - 1
	l0Words = l0Slots / 64

	wheelBits   = 10 // bits per level above level 0
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
	wheelWords  = wheelSlots / 64
)

// hiShift returns the block-width shift of level lvl (1..3).
func hiShift(lvl int) uint { return l0Bits + uint(lvl-1)*wheelBits }

// Event location markers stored in event.slot (>= 0 is a flat slot index:
// level 0 uses [0, l0Slots), level lvl >= 1 uses
// l0Slots + (lvl-1)*wheelSlots + slot).
const (
	slotNone  = -1 // not queued: retired or executing
	slotSpill = -2 // on the beyond-horizon spill list
)

// slotList is one wheel slot: a doubly-linked list threaded through the
// event nodes themselves, so schedule, cancel, and fire are pointer
// stores with no allocation.
type slotList struct {
	head, tail *event
}

func (l *slotList) pushBack(ev *event) {
	ev.prev = l.tail
	ev.next = nil
	if l.tail != nil {
		l.tail.next = ev
	} else {
		l.head = ev
	}
	l.tail = ev
}

// insertSorted links ev into a list sorted by (at, seq), walking from the
// tail: a new event is almost always the latest yet scheduled.
func (l *slotList) insertSorted(ev *event) {
	p := l.tail
	for p != nil && (p.at > ev.at || (p.at == ev.at && p.seq > ev.seq)) {
		p = p.prev
	}
	ev.prev = p
	if p == nil {
		ev.next = l.head
		l.head = ev
	} else {
		ev.next = p.next
		p.next = ev
	}
	if ev.next == nil {
		l.tail = ev
	} else {
		ev.next.prev = ev
	}
}

func (l *slotList) remove(ev *event) {
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		l.head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	} else {
		l.tail = ev.prev
	}
}

// wheel is the timing-wheel state of one engine.
type wheel struct {
	// cur is the scan cursor: monotone, always <= the earliest pending
	// event, and the anchor every placement is computed against. It only
	// advances to a fired event's instant or to a block start that
	// cascades.
	cur Time

	// hiNext is a lower bound on every upper-level block start and on
	// the spill head: placements lower it, cancels leave it low, and
	// findNext recomputes it when the earliest bucket reaches it.
	hiNext Time

	pending    int // events queued in the wheel levels
	spillCount int // events on the spill list
	spill      slotList

	// cascaded and spilled are telemetry: events re-placed downward by a
	// cascade, and events that landed beyond the wheel horizon.
	cascaded uint64
	spilled  uint64

	count  [wheelLevels]int
	bits0  [l0Words]uint64                     // level-0 occupancy
	bitsHi [wheelLevels - 1][wheelWords]uint64 // levels 1..3
	slots  []slotList                          // l0Slots + (wheelLevels-1)*wheelSlots, one allocation
}

func newWheel() *wheel {
	return &wheel{
		hiNext: MaxTime,
		slots:  make([]slotList, l0Slots+(wheelLevels-1)*wheelSlots),
	}
}

// bitmap returns the occupancy bitmap of level lvl.
func (w *wheel) bitmap(lvl int) []uint64 {
	if lvl == 0 {
		return w.bits0[:]
	}
	return w.bitsHi[lvl-1][:]
}

// ringScan returns the first set bit of bm in ring order from bit from:
// the first occupied slot of a level from the cursor's, which is the
// level's earliest block. bm must have a bit set and a power-of-two
// length.
func ringScan(bm []uint64, from int) int {
	word := from >> 6
	if v := bm[word] >> uint(from&63); v != 0 {
		return from + bits.TrailingZeros64(v)
	}
	for i := 1; i < len(bm); i++ {
		wd := (word + i) & (len(bm) - 1)
		if bm[wd] != 0 {
			return wd<<6 + bits.TrailingZeros64(bm[wd])
		}
	}
	// Wrapped around to the cursor's word: only bits below from remain.
	return word<<6 + bits.TrailingZeros64(bm[word])
}

// head0 returns the earliest level-0 event. Level 0 must hold an event.
func (w *wheel) head0() *event {
	return w.slots[ringScan(w.bits0[:], int(uint64(w.cur)>>l0Shift&l0Mask))].head
}

// firstHi returns level lvl's (1..3) first occupied slot and the start of
// its block. The level must hold an event.
func (w *wheel) firstHi(lvl int) (idx int, start Time) {
	sh := hiShift(lvl)
	blk := uint64(w.cur) >> sh
	from := int(blk & wheelMask)
	idx = ringScan(w.bitsHi[lvl-1][:], from)
	return idx, Time((blk + uint64((idx-from)&wheelMask)) << sh)
}

// place files ev into the lowest level whose block distance from the
// cursor fits. Events beyond the level-3 window go to the spill list.
func (w *wheel) place(ev *event) {
	at, cur := uint64(ev.at), uint64(w.cur)
	if at>>l0Shift-cur>>l0Shift < l0Slots {
		idx := int(at >> l0Shift & l0Mask)
		w.slots[idx].insertSorted(ev)
		ev.slot = int32(idx)
		w.bits0[idx>>6] |= 1 << uint(idx&63)
		w.count[0]++
		w.pending++
		return
	}
	for lvl := 1; lvl < wheelLevels; lvl++ {
		sh := hiShift(lvl)
		if at>>sh-cur>>sh >= wheelSlots {
			continue
		}
		idx := int(at >> sh & wheelMask)
		flat := l0Slots + (lvl-1)*wheelSlots + idx
		w.slots[flat].pushBack(ev)
		ev.slot = int32(flat)
		w.bitsHi[lvl-1][idx>>6] |= 1 << uint(idx&63)
		w.count[lvl]++
		w.pending++
		w.hiNext = min(w.hiNext, Time(at>>sh<<sh))
		return
	}
	w.spilled++
	w.spillCount++
	ev.slot = slotSpill
	w.spill.insertSorted(ev)
	w.hiNext = min(w.hiNext, ev.at)
}

// unqueue removes a pending event from its slot or the spill list in
// O(1), for Cancel; retire clears the node's links and slot.
func (w *wheel) unqueue(ev *event) {
	if ev.slot == slotSpill {
		w.spill.remove(ev)
		w.spillCount--
	} else {
		s := int(ev.slot)
		l := &w.slots[s]
		l.remove(ev)
		lvl, idx := 0, s
		if s >= l0Slots {
			lvl, idx = 1+(s-l0Slots)>>wheelBits, (s-l0Slots)&wheelMask
		}
		if l.head == nil {
			w.bitmap(lvl)[idx>>6] &^= 1 << uint(idx&63)
		}
		w.count[lvl]--
		w.pending--
	}
}

// pop0 unlinks ev, the head of its level-0 bucket, to fire it. retire
// clears the node's links and slot.
func (w *wheel) pop0(ev *event) {
	s := int(ev.slot)
	l := &w.slots[s]
	if l.head = ev.next; l.head == nil {
		l.tail = nil
		w.bits0[s>>6] &^= 1 << uint(s&63)
	} else {
		l.head.prev = nil
	}
	w.count[0]--
	w.pending--
}

// earliestHi returns the earliest upper-level block start or spill head,
// and where it is: level 1..3 and slot, or level wheelLevels for the
// spill list, or level -1 when there is none. A tie goes to the higher
// level, though either order is correct.
func (w *wheel) earliestHi() (lvl, idx int, start Time) {
	lvl, start = -1, MaxTime
	for l := 1; l < wheelLevels; l++ {
		if w.count[l] == 0 {
			continue
		}
		if i, s := w.firstHi(l); s <= start {
			lvl, idx, start = l, i, s
		}
	}
	if w.spillCount > 0 && w.spill.head.at <= start {
		lvl, start = wheelLevels, w.spill.head.at
	}
	return lvl, idx, start
}

// findNext returns the earliest pending event if it is due by deadline,
// cascading every upper-level block (and draining the spill list) that
// starts at or before it; otherwise nil. The cursor never moves past the
// deadline, so later placements (anchored at the cursor) stay valid.
func (w *wheel) findNext(deadline Time) *event {
	if w.pending == 0 && w.spillCount == 0 {
		return nil
	}
	var ev *event
	for {
		ev = nil
		if w.count[0] > 0 {
			ev = w.head0()
			if ev.at < w.hiNext {
				break
			}
		}
		lvl, idx, start := w.earliestHi()
		w.hiNext = start
		if ev != nil && (lvl < 0 || ev.at < start) {
			break
		}
		if lvl < 0 || start > deadline {
			return nil
		}
		w.cur = start
		if lvl == wheelLevels {
			w.drainSpill()
		} else {
			w.cascade(lvl, idx)
		}
	}
	if ev.at > deadline {
		return nil
	}
	return ev
}

// cascade re-places every event of one upper-level slot once the cursor
// reached its block start; each lands at least one level lower (the
// block is exactly the window of the level below), never in the spill
// list.
func (w *wheel) cascade(lvl, idx int) {
	l := &w.slots[l0Slots+(lvl-1)*wheelSlots+idx]
	ev := l.head
	l.head, l.tail = nil, nil
	w.bitsHi[lvl-1][idx>>6] &^= 1 << uint(idx&63)
	k := 0
	for ev != nil {
		next := ev.next
		w.place(ev)
		ev = next
		k++
	}
	w.count[lvl] -= k
	w.pending -= k // place re-counted each event
	w.cascaded += uint64(k)
}

// drainSpill moves every spill event now inside the level-3 window into
// the levels. Only called with the cursor at the spill head's timestamp,
// so at least the head moves.
func (w *wheel) drainSpill() {
	sh := hiShift(wheelLevels - 1)
	for ev := w.spill.head; ev != nil && uint64(ev.at)>>sh-uint64(w.cur)>>sh < wheelSlots; ev = w.spill.head {
		w.spill.remove(ev)
		w.spillCount--
		w.place(ev)
	}
}

// peek reports the earliest pending instant without moving the cursor or
// cascading anything, so placements stay anchored where they were: the
// earliest bucket's head, each upper level's first occupied slot scanned
// for its minimum, and the spill head.
func (w *wheel) peek() (Time, bool) {
	t, ok := MaxTime, false
	if w.count[0] > 0 {
		t, ok = w.head0().at, true
	}
	for lvl := 1; lvl < wheelLevels; lvl++ {
		if w.count[lvl] == 0 {
			continue
		}
		idx, start := w.firstHi(lvl)
		if ok && start >= t {
			continue
		}
		for ev := w.slots[l0Slots+(lvl-1)*wheelSlots+idx].head; ev != nil; ev = ev.next {
			t = min(t, ev.at)
		}
		ok = true
	}
	if w.spillCount > 0 && (!ok || w.spill.head.at < t) {
		t, ok = w.spill.head.at, true
	}
	if !ok {
		return 0, false
	}
	return t, true
}

// sumPending folds every pending event into a pendMix sum: the wheel
// slots and the spill list.
func (w *wheel) sumPending() uint64 {
	var sum uint64
	for i := range w.slots {
		for ev := w.slots[i].head; ev != nil; ev = ev.next {
			sum += pendMix(ev.at, ev.seq)
		}
	}
	for ev := w.spill.head; ev != nil; ev = ev.next {
		sum += pendMix(ev.at, ev.seq)
	}
	return sum
}

// runWheel is RunUntil's loop: take the earliest pending event, retire
// it, and run its callback, one event at a time. Events a callback
// schedules at the current instant sort into the earliest bucket behind
// the instant's other events, preserving the exact (at, seq) total order.
func (e *Engine) runWheel(deadline Time) uint64 {
	w := e.wheel
	var n uint64
	for !e.stopped {
		ev := w.findNext(deadline)
		if ev == nil {
			break
		}
		w.cur = ev.at
		w.pop0(ev)
		e.now = ev.at
		fn, afn, arg := ev.fn, ev.afn, ev.arg
		e.retire(ev)
		if afn != nil {
			afn(arg)
		} else {
			fn()
		}
		n++
		e.Executed++
		if e.postEvent != nil {
			e.postEvent(e.now, e.Executed)
		}
		if e.meter != nil {
			e.meterPend++
			if e.meterPend >= meterBatch {
				e.flushMeter()
			}
		}
	}
	return n
}

package sim

import "math/bits"

// The hierarchical timing wheel. A wide bottom level of 16384 one-ns slots
// and three 1024-slot upper levels:
//
//	level 0: 1 ns slots,     window ~16.4 us  (serialization, link delays, same-instant bursts)
//	level 1: ~16.4 us slots, window ~16.8 ms  (RTTs, RTO timers, sampler ticks)
//	level 2: ~16.8 ms slots, window ~17.2 s   (epoch snapshots, run phases)
//	level 3: ~17.2 s slots,  window ~4.9 h    (whole-run horizons)
//
// The bottom level is deliberately wide: most events a packet simulation
// schedules — serialization times, link latencies, ACK clocks — land within
// a few microseconds, so a 2^14-slot level 0 lets them place directly at
// their firing slot with zero cascades while the slot array (256 KB) stays
// cache-resident. Wider bottoms (2^16) eliminate a few more cascades but
// lose more to cache misses on the slot array; narrower ones (2^10) push
// the bulk of placements through 1-2 cascades. Only RTT-and-above timers (a
// small minority, and RTOs are usually canceled before they travel) pay a
// cascade.
//
// An event at absolute time t goes to the lowest level whose window,
// anchored at the scan cursor cur, contains t: level L iff
// (t XOR cur) < 2^levelTop(L), at slot (t >> levelShift(L)) & levelMask(L).
// Events beyond the level-3 window go to a doubly-linked spill list kept
// sorted by (at, seq).
//
// The cascade rule: the cursor only moves forward through findNext. When
// every slot at level 0 ahead of the cursor is empty, the cursor jumps to
// the start of the next occupied higher-level slot and that slot's events
// re-place one level (or more) down. A slot's range is exactly the window
// of the level below, so after the cascade the level invariant holds again:
// level L holds only events inside the current level-(L+1) slot's range,
// which is why a bitmap scan from the cursor can never miss an event.
//
// Level-0 slots hold events of a single instant (the tick is 1 ns). That
// makes the same-instant batch drain in runWheel safe: a detached run can
// only be extended by callbacks scheduling At(now) — which land in the slot
// with strictly larger seq and are picked up by the next findNext — never
// by events that must fire before the run's remainder.
//
// Slot lists stay seq-sorted by construction (direct placements append in
// schedule order, cascades preserve list order, and every cascade into a
// slot happens before any direct placement can target it); detachRun still
// verifies and falls back to an insertion sort, because a Stop mid-run
// requeues the remainder behind any newly scheduled same-instant events.
const (
	l0Bits     = 14
	l0Slots    = 1 << l0Bits
	l0Mask     = l0Slots - 1
	l0Words    = l0Slots / 64
	l0SumWords = l0Words / 64

	wheelBits   = 10 // bits per level above level 0
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
	wheelWords  = wheelSlots / 64

	// wheelHorizon is the first instant-delta past the level-3 window;
	// events at or beyond it spill.
	wheelHorizon = uint64(1) << (l0Bits + (wheelLevels-1)*wheelBits)
)

// hiShift returns the slot-index shift of level lvl (1..3).
func hiShift(lvl int) uint { return l0Bits + uint(lvl-1)*wheelBits }

// Event location markers stored in event.slot (>= 0 is a flat slot index:
// level 0 uses [0, l0Slots), level lvl >= 1 uses
// l0Slots + (lvl-1)*wheelSlots + slot).
const (
	slotNone  = -1 // not queued: retired or executing
	slotSpill = -2 // on the beyond-horizon spill list
	slotRun   = -3 // detached into the current same-instant run
)

// slotList is one wheel slot: a doubly-linked list threaded through the
// event nodes themselves, so schedule, cancel, and detach are pointer
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

// runEntry snapshots an event and its generation at detach time. The
// generation makes mid-run cancellation safe: Cancel retires the node on
// the spot (it may even be reissued to a new event before the run loop
// reaches it), and the stale entry is skipped by the gen check without
// touching the node again.
type runEntry struct {
	ev  *event
	gen uint64
}

// wheel is the timing-wheel state of one engine.
type wheel struct {
	// cur is the scan cursor: monotone, always <= the earliest pending
	// event, and the anchor every placement is computed against. It only
	// advances through findNext, which cascades each window it enters.
	cur Time

	pending    int // events queued in the wheel levels
	inRun      int // live events detached into run, not yet executed
	spillCount int // events on the spill list

	spillHead, spillTail *event

	// cascaded and spilled are telemetry: events re-placed downward by a
	// cascade, and events that landed beyond the wheel horizon.
	cascaded uint64
	spilled  uint64

	count  [wheelLevels]int
	bits0  []uint64           // l0Words occupancy words for level 0
	sum0   [l0SumWords]uint64 // summary: bit w set iff bits0[w] != 0
	bitsHi [wheelLevels - 1][wheelWords]uint64
	slots  []slotList // l0Slots + (wheelLevels-1)*wheelSlots, one allocation

	run    []runEntry // same-instant drain scratch, reused across runs
	runPos int
}

func newWheel() *wheel {
	return &wheel{
		bits0: make([]uint64, l0Words),
		slots: make([]slotList, l0Slots+(wheelLevels-1)*wheelSlots),
	}
}

func (w *wheel) setBit0(idx int) {
	wd := idx >> 6
	w.bits0[wd] |= 1 << uint(idx&63)
	w.sum0[wd>>6] |= 1 << uint(wd&63)
}

func (w *wheel) clearBit0(idx int) {
	wd := idx >> 6
	w.bits0[wd] &^= 1 << uint(idx&63)
	if w.bits0[wd] == 0 {
		w.sum0[wd>>6] &^= 1 << uint(wd&63)
	}
}

func (w *wheel) setBitHi(lvl, idx int)   { w.bitsHi[lvl-1][idx>>6] |= 1 << uint(idx&63) }
func (w *wheel) clearBitHi(lvl, idx int) { w.bitsHi[lvl-1][idx>>6] &^= 1 << uint(idx&63) }

// scan0 returns the first occupied level-0 slot index >= from. The summary
// bitmap turns the level-0 word scan (up to l0Words words when the level is
// sparse) into at most l0SumWords summary probes plus one word probe.
func (w *wheel) scan0(from int) (int, bool) {
	word := from >> 6
	if v := w.bits0[word] >> uint(from&63); v != 0 {
		return from + bits.TrailingZeros64(v), true
	}
	word++
	sw := word >> 6
	if sw >= l0SumWords {
		return 0, false
	}
	v := w.sum0[sw] >> uint(word&63) << uint(word&63) // mask words < word
	for {
		if v != 0 {
			wd := sw<<6 + bits.TrailingZeros64(v)
			return wd<<6 + bits.TrailingZeros64(w.bits0[wd]), true
		}
		sw++
		if sw >= l0SumWords {
			return 0, false
		}
		v = w.sum0[sw]
	}
}

// scanHi returns the first occupied slot index >= from at level lvl (1..3).
func (w *wheel) scanHi(lvl, from int) (int, bool) {
	if from >= wheelSlots {
		return 0, false
	}
	bm := &w.bitsHi[lvl-1]
	word := from >> 6
	if v := bm[word] >> uint(from&63); v != 0 {
		return from + bits.TrailingZeros64(v), true
	}
	for word++; word < wheelWords; word++ {
		if bm[word] != 0 {
			return word<<6 + bits.TrailingZeros64(bm[word]), true
		}
	}
	return 0, false
}

// place files ev into the level and slot selected by its distance from the
// cursor. Events beyond the level-3 window go to the spill list.
func (w *wheel) place(ev *event) {
	d := uint64(ev.at) ^ uint64(w.cur)
	var lvl int
	switch {
	case d < 1<<l0Bits:
		idx := int(uint64(ev.at) & l0Mask)
		w.slots[idx].pushBack(ev)
		ev.slot = int32(idx)
		w.setBit0(idx)
		w.count[0]++
		w.pending++
		return
	case d < 1<<(l0Bits+wheelBits):
		lvl = 1
	case d < 1<<(l0Bits+2*wheelBits):
		lvl = 2
	case d < 1<<(l0Bits+3*wheelBits):
		lvl = 3
	default:
		w.placeSpill(ev)
		return
	}
	idx := int(uint64(ev.at) >> hiShift(lvl) & wheelMask)
	flat := l0Slots + (lvl-1)*wheelSlots + idx
	w.slots[flat].pushBack(ev)
	ev.slot = int32(flat)
	w.setBitHi(lvl, idx)
	w.count[lvl]++
	w.pending++
}

// placeSpill inserts ev into the sorted beyond-horizon list. The scan runs
// from the tail: a spill is almost always the latest timer yet scheduled.
func (w *wheel) placeSpill(ev *event) {
	w.spilled++
	w.spillCount++
	ev.slot = slotSpill
	p := w.spillTail
	for p != nil && (p.at > ev.at || (p.at == ev.at && p.seq > ev.seq)) {
		p = p.prev
	}
	if p == nil {
		ev.prev = nil
		ev.next = w.spillHead
		if w.spillHead != nil {
			w.spillHead.prev = ev
		} else {
			w.spillTail = ev
		}
		w.spillHead = ev
	} else {
		ev.prev = p
		ev.next = p.next
		if p.next != nil {
			p.next.prev = ev
		} else {
			w.spillTail = ev
		}
		p.next = ev
	}
}

// unqueue removes a pending event from wherever it lives — wheel slot,
// spill list, or the detached run — in O(1). Used by Cancel.
func (w *wheel) unqueue(ev *event) {
	switch {
	case ev.slot == slotRun:
		w.inRun--
	case ev.slot == slotSpill:
		if ev.prev != nil {
			ev.prev.next = ev.next
		} else {
			w.spillHead = ev.next
		}
		if ev.next != nil {
			ev.next.prev = ev.prev
		} else {
			w.spillTail = ev.prev
		}
		w.spillCount--
	default:
		s := int(ev.slot)
		l := &w.slots[s]
		l.remove(ev)
		if s < l0Slots {
			if l.head == nil {
				w.clearBit0(s)
			}
			w.count[0]--
		} else {
			r := s - l0Slots
			lvl := 1 + r>>wheelBits
			if l.head == nil {
				w.clearBitHi(lvl, r&wheelMask)
			}
			w.count[lvl]--
		}
		w.pending--
	}
	ev.next, ev.prev = nil, nil
	ev.slot = slotNone
}

// findNext advances the cursor to the earliest pending instant <= deadline
// and reports it, cascading every window boundary it crosses. When the
// next event lies past the deadline the cursor does not move beyond it, so
// later placements (anchored at the cursor) stay valid.
func (w *wheel) findNext(deadline Time) (Time, bool) {
	for w.pending > 0 || w.spillCount > 0 {
		if w.count[0] > 0 {
			// The level invariant guarantees this scan finds a slot:
			// level 0 only holds events in the current window at or
			// after the cursor.
			if s, ok := w.scan0(int(uint64(w.cur) & l0Mask)); ok {
				t := Time(uint64(w.cur)&^uint64(l0Mask) | uint64(s))
				if t > deadline {
					return 0, false
				}
				w.cur = t
				return t, true
			}
		}
		if !w.climb(deadline) {
			return 0, false
		}
	}
	return 0, false
}

// climb moves the cursor to the start of the next occupied higher-level
// slot (lowest occupied level first — higher levels only hold later
// events) and cascades it down. Returns false when that jump would cross
// the deadline, leaving the cursor untouched.
func (w *wheel) climb(deadline Time) bool {
	cur := uint64(w.cur)
	for lvl := 1; lvl < wheelLevels; lvl++ {
		if w.count[lvl] == 0 {
			continue
		}
		shift := hiShift(lvl)
		s, ok := w.scanHi(lvl, int(cur>>shift&wheelMask)+1)
		if !ok {
			continue
		}
		span := uint64(1)<<(shift+wheelBits) - 1
		start := Time(cur&^span | uint64(s)<<shift)
		if start > deadline {
			return false
		}
		w.cur = start
		w.cascade(lvl, s)
		return true
	}
	if w.spillCount > 0 {
		if w.spillHead.at > deadline {
			return false
		}
		w.cur = w.spillHead.at
		w.drainSpill()
		return true
	}
	return false
}

// cascade re-places every event of one higher-level slot after the cursor
// entered its range; each lands at least one level lower (the slot's range
// is the window of the level below), never in the spill list.
func (w *wheel) cascade(lvl, s int) {
	l := &w.slots[l0Slots+(lvl-1)*wheelSlots+s]
	ev := l.head
	l.head, l.tail = nil, nil
	w.clearBitHi(lvl, s)
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

// drainSpill moves every spill event now inside the wheel horizon into the
// levels. Only called with the cursor at the spill head's timestamp, so at
// least the head moves.
func (w *wheel) drainSpill() {
	for ev := w.spillHead; ev != nil && uint64(ev.at)^uint64(w.cur) < wheelHorizon; ev = w.spillHead {
		w.spillHead = ev.next
		if w.spillHead != nil {
			w.spillHead.prev = nil
		} else {
			w.spillTail = nil
		}
		ev.next, ev.prev = nil, nil
		w.spillCount--
		w.place(ev)
	}
}

// detachRun moves the level-0 slot at instant t into the run scratch,
// sorted by seq. The slot list is seq-sorted by construction; the check
// catches the one exception (a Stop-requeued remainder behind newer
// same-instant events) and repairs it.
func (w *wheel) detachRun(t Time) {
	s := int(uint64(t) & l0Mask)
	l := &w.slots[s]
	sorted := true
	var lastSeq uint64
	k := 0
	for ev := l.head; ev != nil; {
		next := ev.next
		ev.next, ev.prev = nil, nil
		ev.slot = slotRun
		if k > 0 && ev.seq < lastSeq {
			sorted = false
		}
		lastSeq = ev.seq
		w.run = append(w.run, runEntry{ev, ev.gen}) //tcnlint:hotpath scratch grows to the largest same-instant run once, then is reused
		ev = next
		k++
	}
	l.head, l.tail = nil, nil
	w.clearBit0(s)
	w.count[0] -= k
	w.pending -= k
	w.inRun += k
	if !sorted {
		insertionSortRun(w.run)
	}
}

// requeueRun puts the unexecuted remainder of a run back into the wheel
// after Stop; stale (mid-run-canceled) entries are dropped.
func (w *wheel) requeueRun() {
	for ; w.runPos < len(w.run); w.runPos++ {
		ent := w.run[w.runPos]
		if ent.ev.gen != ent.gen {
			continue
		}
		w.inRun--
		w.place(ent.ev)
	}
}

// sumPending folds every pending event into a pendMix sum: the wheel
// slots, the spill list, and the live remainder of the current run.
func (w *wheel) sumPending() uint64 {
	var sum uint64
	for i := range w.slots {
		for ev := w.slots[i].head; ev != nil; ev = ev.next {
			sum += pendMix(ev.at, ev.seq)
		}
	}
	for ev := w.spillHead; ev != nil; ev = ev.next {
		sum += pendMix(ev.at, ev.seq)
	}
	for _, ent := range w.run[w.runPos:] {
		if ent.ev.gen == ent.gen {
			sum += pendMix(ent.ev.at, ent.ev.seq)
		}
	}
	return sum
}

// insertionSortRun sorts a same-instant run by seq. Runs are tiny and
// nearly sorted when this is ever needed, so insertion sort wins.
func insertionSortRun(run []runEntry) {
	for i := 1; i < len(run); i++ {
		e := run[i]
		j := i - 1
		for j >= 0 && run[j].ev.seq > e.ev.seq {
			run[j+1] = run[j]
			j--
		}
		run[j+1] = e
	}
}

// runWheel is RunUntil's loop: find the next occupied instant,
// detach its whole run, and execute it in seq order. Events a callback
// schedules at the current instant land back in the slot with larger seq
// and are drained by the next findNext iteration, preserving the exact
// (at, seq) total order.
func (e *Engine) runWheel(deadline Time) uint64 {
	w := e.wheel
	var n uint64
	for !e.stopped {
		t, ok := w.findNext(deadline)
		if !ok {
			break
		}
		s := int(uint64(t) & l0Mask)
		l := &w.slots[s]
		if ev := l.head; ev.next == nil {
			// Single-event instant — the overwhelmingly common case.
			// Dispatch directly, skipping the run scratch: with one
			// event there is nothing to order and nothing a mid-run
			// Cancel could target (the event retires before its
			// callback runs, so any Cancel of it is already stale).
			l.head, l.tail = nil, nil
			w.clearBit0(s)
			w.count[0]--
			w.pending--
			ev.next, ev.prev = nil, nil
			e.now = t
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
			continue
		}
		w.detachRun(t)
		e.now = t
		for w.runPos < len(w.run) {
			ent := w.run[w.runPos]
			w.runPos++
			ev := ent.ev
			if ev.gen != ent.gen {
				continue // canceled mid-run
			}
			w.inRun--
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
			if e.stopped {
				break
			}
		}
		if e.stopped {
			w.requeueRun()
		}
		w.run = w.run[:0]
		w.runPos = 0
	}
	return n
}

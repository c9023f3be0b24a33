// Package sim (fixture path "wheelsim") mirrors the timing-wheel core's
// slot store. Its store methods (wheel.place, wheel.cascade,
// wheel.drainSpill, slotList.insertSorted) are direct hotpath roots — the
// analyzer checks them even though nothing in the fixture calls them —
// because the real wheel relinks events and whole slots while the event
// loop is mid-fire. It lives apart from the shared "sim" fixture so its
// want comments do not leak into the other analyzers that target that
// package.
package sim

// wheel is the fixture twin of the engine's hierarchical timing wheel.
type wheel struct {
	slots    [8][]func()
	overflow []func()
	names    map[int]string
}

// slotList is the fixture twin of a sorted level-0 bucket.
type slotList struct {
	head, tail *node
}

type node struct {
	at         int64
	prev, next *node
}

// place is a true negative: indexing preallocated storage does not grow
// anything and is allowed on the store's path.
func (w *wheel) place(i int, fn func()) {
	w.slots[i&7][0] = fn
}

// cascade redistributes an overflow slot into lower levels; growing the
// destination slot through its field is flagged, because each rollover
// would then allocate inside the event loop.
func (w *wheel) cascade(lvl, s int) {
	for _, fn := range w.overflow {
		w.slots[s&7] = append(w.slots[s&7], fn) // want `append through "w" may grow on the hot path`
	}
	_ = lvl
}

// drainSpill walks beyond-horizon timers back into the wheel; a map keyed
// by timer id would randomize the re-insertion order on top of allocating.
func (w *wheel) drainSpill() {
	for id := range w.names { // want `map iteration on the hot path`
		_ = id
	}
}

// insertSorted links n into a sorted bucket from the tail. Its pointer
// relinks are true negatives; stepping the walk through a closure is
// flagged, because the captured cursor escapes and each insert would
// allocate.
func (l *slotList) insertSorted(n *node) {
	p := l.tail
	back := func() { p = p.prev } // want `closure captures "p" inside the hot path`
	for p != nil && p.at > n.at {
		back()
	}
	n.prev = p
	if p == nil {
		n.next, l.head = l.head, n
	} else {
		n.next, p.next = p.next, n
	}
	if n.next == nil {
		l.tail = n
	} else {
		n.next.prev = n
	}
}

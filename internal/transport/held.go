package transport

// heldSegs is the receiver's store of out-of-order segments. Logically it
// is a map from a held segment's start to its end: holding a start that is
// already held overwrites its end, and absorption follows exact keys from
// rcvNxt (the segment starting at rcvNxt moves rcvNxt to its end, and so
// on). Keys below rcvNxt can never be looked up again and may be dropped.
//
// Physically it is a sorted slice of runs, each a stretch of equal-length
// contiguous segments. A loss episode holds a window of full-size segments
// behind each hole, so a few runs stand in for thousands of map entries:
// a hold that continues the last run extends it in place, and an in-order
// arrival that reaches a run's start absorbs the whole run at once.
//
// Absorption is by exact key, not by byte range. A persistent connection
// grows its flow while it runs, so a short tail segment can later be resent
// as a full one, and held boundaries need not line up with new segments;
// merging ranges would deliver bytes the map-based receiver did not.
//
// Runs keep disjoint key spans: the keys of runs[i] all lie below the first
// key of runs[i+1]. A hold whose start falls inside a run's span splits the
// run around it, so the only run that can hold a key is the last one that
// starts at or below it. Byte ranges may still overlap when boundaries are
// misaligned; only keys matter for lookups.
type heldSegs struct {
	runs []heldRun
	head int // runs[:head] are absorbed or unreachable; runs[head:] are live
}

// heldRun is count segments of size bytes each, the first starting at
// start. A zero-size run holds exactly one segment.
type heldRun struct {
	start, size, count int64
}

// last returns the start of the run's last segment.
func (r *heldRun) last() int64 { return r.start + (r.count-1)*r.size }

// continues reports whether a segment [k, k+size) would be the run's next
// segment.
func (r *heldRun) continues(k, size int64) bool {
	return size > 0 && size == r.size && k == r.start+r.count*r.size
}

// hold records the segment [k, k+n), replacing any segment held at k.
func (h *heldSegs) hold(k int64, n int) {
	size := int64(n)
	if len(h.runs) == 0 {
		h.insert(0, heldRun{k, size, 1})
		return
	}
	if h.head > 0 && len(h.runs) == cap(h.runs) {
		// Reclaim the absorbed prefix before growing.
		h.runs = h.runs[:copy(h.runs, h.runs[h.head:])]
		h.head = 0
	}
	// Fast path: the segment lies past every held key, as the next
	// segment of a window behind a loss does.
	if t := &h.runs[len(h.runs)-1]; k > t.last() {
		if t.continues(k, size) {
			t.count++
		} else {
			h.insert(len(h.runs), heldRun{k, size, 1})
		}
		return
	}
	// i is the last live run starting at or below k (h.head-1 if none).
	lo, hi := h.head, len(h.runs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.runs[mid].start > k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	i := lo - 1
	if i >= h.head {
		r := &h.runs[i]
		if k <= r.last() {
			h.split(i, k, size)
			return
		}
		if r.continues(k, size) {
			r.count++
			// A segment that closes the gap to the next run joins the two.
			if nx := &h.runs[i+1]; nx.start == k+size && nx.size == size {
				r.count += nx.count
				h.runs = h.runs[:i+1+copy(h.runs[i+1:], h.runs[i+2:])]
			}
			return
		}
	}
	// k lies between two runs' spans (or before the first live run).
	h.insert(i+1, heldRun{k, size, 1})
}

// split holds [k, k+size) where k falls inside the span of runs[i]: the run
// keeps its segments below k and above k, and the new segment sits between
// them. A segment already held at k with the same size is left as is.
func (h *heldSegs) split(i int, k, size int64) {
	r := h.runs[i]
	off := k - r.start
	// below counts r's segments under k, above those over k, and next is
	// where the segments over k begin. A zero-size run spans only its
	// start, so off > 0 implies r.size > 0.
	var below, above, next int64
	if off == 0 || off%r.size == 0 {
		if size == r.size {
			return
		}
		if off > 0 {
			below = off / r.size
		}
		above = r.count - below - 1 // the segment at k is replaced
		next = k + r.size
	} else {
		below = off/r.size + 1
		above = r.count - below
		next = r.start + below*r.size
	}
	if below > 0 {
		h.runs[i].count = below
		i++
		h.insert(i, heldRun{k, size, 1})
	} else {
		h.runs[i] = heldRun{k, size, 1}
	}
	if above > 0 {
		h.insert(i+1, heldRun{next, r.size, above})
	}
}

// insert places run at index i, shifting the runs after it up by one.
func (h *heldSegs) insert(i int, run heldRun) {
	h.runs = append(h.runs, heldRun{}) //tcnlint:hotpath the store grows to its largest loss episode and is reused until the flow finishes; a warm store holds and absorbs without allocating
	copy(h.runs[i+1:], h.runs[i:])
	h.runs[i] = run
}

// absorb returns where the receive point moves once in-order data reaches
// next: through the segment held at next, the one held at its end, and so
// on. Absorbed and unreachable runs leave the store.
func (h *heldSegs) absorb(next int64) int64 {
	for h.head < len(h.runs) {
		r := &h.runs[h.head]
		if r.last() < next {
			h.head++ // every key of the run is below next: unreachable
			continue
		}
		off := next - r.start
		if off < 0 || (off > 0 && off%r.size != 0) {
			break // no segment is held at next
		}
		next = r.start + r.count*r.size
		h.head++
	}
	if h.head == len(h.runs) {
		h.runs, h.head = h.runs[:0], 0
	}
	return next
}

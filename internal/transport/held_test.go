package transport

import (
	"cmp"
	"runtime"
	"slices"
	"testing"

	"tcn/internal/invariant"
	"tcn/internal/sim"
)

// mapHeld is the receiver's out-of-order logic as it was before the run
// store: one map entry per held segment, absorbed by exact key. The store
// must be indistinguishable from it.
type mapHeld map[int64]int64

func (m mapHeld) hold(k int64, n int) { m[k] = k + int64(n) }

func (m mapHeld) absorb(next int64) int64 {
	for {
		e, ok := m[next]
		if !ok {
			return next
		}
		delete(m, next)
		next = e
	}
}

// heldSeg is one held segment.
type heldSeg struct{ start, end int64 }

// live returns the map's segments the receiver can still reach (start at
// or above rcvNxt), sorted by start.
func (m mapHeld) live(rcvNxt int64) []heldSeg {
	var out []heldSeg
	//tcnlint:ordered sorted below
	for k, e := range m {
		if k >= rcvNxt {
			out = append(out, heldSeg{k, e})
		}
	}
	slices.SortFunc(out, func(a, b heldSeg) int { return cmp.Compare(a.start, b.start) })
	return out
}

// live returns the store's reachable segments in key order, checking the
// store's own invariant on the way: runs are well formed and their key
// spans are disjoint and ascending.
func (h *heldSegs) live(t *testing.T, rcvNxt int64) []heldSeg {
	t.Helper()
	var out []heldSeg
	for i, r := range h.runs[h.head:] {
		if r.count < 1 || r.size < 0 || (r.size == 0 && r.count != 1) {
			t.Fatalf("malformed run %d: %+v", i, r)
		}
		if i > 0 && r.start <= h.runs[h.head+i-1].last() {
			t.Fatalf("run %d %+v overlaps the key span of run %d %+v", i, r, i-1, h.runs[h.head+i-1])
		}
		for j := int64(0); j < r.count; j++ {
			if k := r.start + j*r.size; k >= rcvNxt {
				out = append(out, heldSeg{k, k + r.size})
			}
		}
	}
	return out
}

// heldSizes are the segment lengths an op draws from: full segments
// dominate, with a short tail, a mid-size segment, a one-byte segment and
// a zero-length one mixed in so that boundaries stop lining up.
var heldSizes = [...]int{1460, 1460, 1460, 1460, 300, 1000, 1, 0}

// heldOps drives the store and the map with one op stream, three bytes an
// op, and compares rcvNxt and the live segments after every op.
//
//	op%4 == 0: in-order arrival of a segment at rcvNxt
//	op%4 == 1: hold a segment at a multiple of the full size past rcvNxt
//	op%4 == 2: hold a segment at an arbitrary offset past rcvNxt
//	op%4 == 3: hold a different length at a start that is already held
//	           (a short tail resent full-length, or the reverse)
func heldOps(t *testing.T, data []byte) (runsMax int) {
	t.Helper()
	var h heldSegs
	m := mapHeld{}
	var nxtH, nxtM int64
	for i := 0; i+2 < len(data); i += 3 {
		op, a, b := data[i], int64(data[i+1]), data[i+2]
		size := heldSizes[int(b)%len(heldSizes)]
		switch op % 4 {
		case 0:
			nxtH = h.absorb(nxtH + int64(size))
			nxtM = m.absorb(nxtM + int64(size))
		case 1:
			k := nxtM + 1460*(1+a%48)
			h.hold(k, size)
			m.hold(k, size)
		case 2:
			k := nxtM + 1 + a*37 + int64(b)
			h.hold(k, size)
			m.hold(k, size)
		case 3:
			segs := m.live(nxtM)
			if len(segs) == 0 {
				continue
			}
			k := segs[int(a)%len(segs)].start
			h.hold(k, size)
			m.hold(k, size)
		}
		if nxtH != nxtM {
			t.Fatalf("op %d: rcvNxt %d, map %d", i/3, nxtH, nxtM)
		}
		got, want := h.live(t, nxtH), m.live(nxtM)
		if !slices.Equal(got, want) {
			t.Fatalf("op %d: live segments differ:\nstore %v\nmap   %v", i/3, got, want)
		}
		runsMax = max(runsMax, len(h.runs)-h.head)
	}
	return runsMax
}

// FuzzHeldSegments checks the run store against the map it replaced on
// arbitrary op streams.
func FuzzHeldSegments(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 1, 0, 1, 2, 0, 0, 0, 0})
	f.Add([]byte{1, 3, 0, 1, 4, 4, 3, 0, 0, 3, 1, 4, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 10, 1, 1, 2, 0, 2, 90, 5, 3, 1, 0, 0, 0, 7, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*1024 {
			data = data[:3*1024]
		}
		heldOps(t, data)
	})
}

// TestHeldSegmentsMatchMap runs many seeded op streams through heldOps.
func TestHeldSegmentsMatchMap(t *testing.T) {
	r := sim.NewRand(7)
	data := make([]byte, 3*300)
	multi := 0
	for n := 0; n < 500; n++ {
		for i := range data {
			data[i] = byte(r.Range(0, 255))
		}
		if heldOps(t, data) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no op stream ever held more than one run")
	}
}

// TestHeldWindowByteBudget pins the memory a loss episode costs: a
// 4096-segment window behind one loss is held as one run, and holding and
// absorbing it must allocate under 1 KB. The map the store replaced needs
// far more, which the test also measures so that the budget is known to
// bite.
func TestHeldWindowByteBudget(t *testing.T) {
	const window, budget = 4096, 1024
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	store := allocated(func() {
		var h heldSegs
		for i := 1; i <= window; i++ {
			h.hold(int64(i)*1460, 1460)
		}
		if n := len(h.runs); n != 1 {
			t.Errorf("a contiguous window is held as %d runs, want 1", n)
		}
		if got := h.absorb(1460); got != (window+1)*1460 || len(h.runs) != 0 {
			t.Errorf("store reached %d with %d runs left", got, len(h.runs))
		}
	})
	old := allocated(func() {
		m := mapHeld{}
		for i := 1; i <= window; i++ {
			m.hold(int64(i)*1460, 1460)
		}
		if got := m.absorb(1460); got != (window+1)*1460 {
			t.Errorf("map reached %d", got)
		}
	})
	if store >= budget {
		t.Fatalf("a %d-segment loss window allocated %d B in the store, want < %d", window, store, budget)
	}
	if old < budget {
		t.Fatalf("the map allocated only %d B for the same window; the budget no longer tells them apart", old)
	}
	t.Logf("%d-segment window: store %d B, map %d B", window, store, old)
}

// TestHeldWarmCycleAllocFree pins that a warm store holds and absorbs
// several loss episodes, with misaligned and resized segments, without
// allocating.
func TestHeldWarmCycleAllocFree(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant.Checkf boxes its arguments; allocation-freedom only holds in normal builds")
	}
	var h heldSegs
	var nxt int64
	cycle := func() {
		base := nxt
		for i := 1; i < 8*40; i++ {
			if i%40 != 0 {
				h.hold(base+int64(i)*1460, 1460)
			}
		}
		h.hold(base+3*1460+700, 1460) // misaligned: splits a run, later unreachable
		h.hold(base+5*1460, 300)      // a short segment splits a run...
		h.hold(base+5*1460, 1460)     // ...and is resent full-length
		for loss := int64(0); loss < 8; loss++ {
			if nxt != base+loss*40*1460 {
				t.Fatalf("loss %d: rcvNxt %d, want %d", loss, nxt-base, loss*40*1460)
			}
			nxt = h.absorb(nxt + 1460)
		}
		if len(h.runs) != 0 {
			t.Fatalf("%d runs left after the cycle", len(h.runs)-h.head)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(50, cycle); n != 0 { //tcnlint:floatexact AllocsPerRun must be exactly zero
		t.Fatalf("warm hold/absorb cycle allocates %.1f times, want 0", n)
	}
}

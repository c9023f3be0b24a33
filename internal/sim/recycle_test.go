package sim

import "testing"

// TestEventRecycling checks that fired events return to the freelist and are
// handed out again, and that the heap stops growing in steady state.
func TestEventRecycling(t *testing.T) {
	e := NewEngine()
	var fired int
	e.At(Nanosecond, func() { fired++ })
	e.Run()
	if len(e.free) != 1 {
		t.Fatalf("freelist has %d nodes after one event, want 1", len(e.free))
	}
	recycled := e.free[0]
	r := e.At(2*Nanosecond, func() { fired++ })
	if r.ev != recycled {
		t.Fatal("second At did not reuse the retired node")
	}
	if len(e.free) != 0 {
		t.Fatalf("freelist has %d nodes after reuse, want 0", len(e.free))
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("fired %d events, want 2", fired)
	}
}

// TestStaleRefAfterRecycle checks that an EventRef to a fired event cannot
// cancel or observe the new event occupying the recycled node.
func TestStaleRefAfterRecycle(t *testing.T) {
	e := NewEngine()
	var firstFired, secondFired bool
	stale := e.At(Nanosecond, func() { firstFired = true })
	e.Run()
	if stale.Pending() {
		t.Fatal("ref still pending after fire")
	}
	fresh := e.At(5*Nanosecond, func() { secondFired = true })
	if fresh.ev != stale.ev {
		t.Fatal("test setup: node was not recycled")
	}
	if stale.Pending() {
		t.Fatal("stale ref reports pending for the recycled node's new event")
	}
	if got := stale.At(); got != 0 {
		t.Fatalf("stale ref At() = %v, want 0", got)
	}
	e.Cancel(stale) // must be a no-op on the new occupant
	if !fresh.Pending() {
		t.Fatal("canceling a stale ref killed the recycled node's new event")
	}
	e.Run()
	if !firstFired || !secondFired {
		t.Fatalf("fired = (%v, %v), want both", firstFired, secondFired)
	}
}

// TestCancelRecyclesNode checks eager cancellation: the node leaves the wheel
// and returns to the freelist immediately.
func TestCancelRecyclesNode(t *testing.T) {
	e := NewEngine()
	r := e.At(10*Nanosecond, func() { t.Fatal("canceled event fired") })
	if e.Len() != 1 {
		t.Fatalf("Len = %d, want 1", e.Len())
	}
	e.Cancel(r)
	if e.Len() != 0 {
		t.Fatalf("Len = %d after cancel, want 0 (eager removal)", e.Len())
	}
	if len(e.free) != 1 {
		t.Fatalf("freelist has %d nodes after cancel, want 1", len(e.free))
	}
	e.Cancel(r) // double cancel is a no-op
	if len(e.free) != 1 {
		t.Fatalf("double cancel changed freelist to %d nodes", len(e.free))
	}
	e.Run()
}

// TestSelfCancelFromHandler checks that a timer canceling its own ref from
// inside its handler is harmless: the node was retired before the callback
// ran, so the ref is already stale.
func TestSelfCancelFromHandler(t *testing.T) {
	e := NewEngine()
	var r EventRef
	var reused EventRef
	r = e.At(Nanosecond, func() {
		e.Cancel(r) // stale: must not disturb anything
		reused = e.At(2*Nanosecond, func() {})
	})
	e.Run()
	if reused.Pending() {
		t.Fatal("rescheduled event never fired")
	}
	if e.Executed != 2 {
		t.Fatalf("Executed = %d, want 2", e.Executed)
	}
}

// TestAtArgDelivery checks that AtArg/AfterArg deliver their argument and
// order among fn events by schedule sequence.
func TestAtArgDelivery(t *testing.T) {
	e := NewEngine()
	var got []int
	record := func(v any) { got = append(got, v.(int)) }
	e.AtArg(5*Nanosecond, record, 1)
	e.At(5*Nanosecond, func() { got = append(got, 2) })
	e.AfterArg(5*Nanosecond, record, 3)
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestAtArgCancel checks that arg events cancel like fn events and release
// their argument reference on retirement.
func TestAtArgCancel(t *testing.T) {
	e := NewEngine()
	r := e.AtArg(3*Nanosecond, func(any) { t.Fatal("canceled arg event fired") }, "payload")
	e.Cancel(r)
	if e.free[0].arg != nil || e.free[0].afn != nil {
		t.Fatal("retire did not clear afn/arg")
	}
	e.Run()
}

// TestRecyclingHeapOrderProperty reschedules through heavy churn and checks
// the (at, seq) firing order survives node reuse.
func TestRecyclingHeapOrderProperty(t *testing.T) {
	e := NewEngine()
	r := NewRand(7)
	var last Time
	var fired int
	var schedule func()
	schedule = func() {
		if fired >= 5000 {
			return
		}
		d := Time(r.Range(0, 50))
		e.After(d, func() {
			if e.Now() < last {
				t.Fatalf("clock went backward: %v after %v", e.Now(), last)
			}
			last = e.Now()
			fired++
			schedule()
			if r.Range(0, 3) == 0 {
				ref := e.After(Time(r.Range(1, 20)), func() { fired++ })
				e.Cancel(ref)
			}
		})
	}
	schedule()
	schedule()
	e.Run()
	if fired < 5000 {
		t.Fatalf("fired %d events, want >= 5000", fired)
	}
	if e.Len() != 0 {
		t.Fatalf("%d events left pending", e.Len())
	}
}

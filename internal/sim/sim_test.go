package sim

import (
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"tcn/internal/testutil"
)

func TestEngineRunsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, d := range []Time{50, 10, 30, 20, 40} {
		d := d
		e.At(d, func() { got = append(got, e.Now()) })
	}
	e.Run()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestEngineFIFOWithinSameInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100*Nanosecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events out of schedule order: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []Time
	e.At(10*Nanosecond, func() {
		trace = append(trace, e.Now())
		e.After(5*Nanosecond, func() { trace = append(trace, e.Now()) })
		e.After(0, func() { trace = append(trace, e.Now()) })
	})
	e.Run()
	want := []Time{10, 10, 15}
	if len(trace) != len(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		e.At(50*Nanosecond, func() {})
	})
	e.Run()
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ref := e.At(10*Nanosecond, func() { fired = true })
	e.Cancel(ref)
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if ref.Pending() {
		t.Fatal("canceled event still pending")
	}
	// Double cancel and cancel-after-run are no-ops.
	e.Cancel(ref)
	e.Cancel(EventRef{})
}

func TestEngineCancelOneOfMany(t *testing.T) {
	e := NewEngine()
	var got []int
	var refs []EventRef
	for i := 0; i < 5; i++ {
		i := i
		refs = append(refs, e.At(Time(i+1), func() { got = append(got, i) }))
	}
	e.Cancel(refs[2])
	e.Run()
	if len(got) != 4 {
		t.Fatalf("got %v, want 4 events without #2", got)
	}
	for _, v := range got {
		if v == 2 {
			t.Fatal("canceled event fired")
		}
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine()
	e.At(10*Nanosecond, func() {})
	n := e.RunUntil(100 * Nanosecond)
	if n != 1 {
		t.Fatalf("executed %d events, want 1", n)
	}
	if e.Now() != 100 {
		t.Fatalf("clock %v, want 100 after RunUntil", e.Now())
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10*Nanosecond, func() { fired++ })
	e.At(200*Nanosecond, func() { fired++ })
	e.RunUntil(100 * Nanosecond)
	if fired != 1 {
		t.Fatalf("fired %d, want 1", fired)
	}
	e.RunUntil(300 * Nanosecond)
	if fired != 2 {
		t.Fatalf("fired %d, want 2 after second run", fired)
	}
}

// TestNextEventTimeLosesNothing schedules an event, peeks at it, and then
// schedules an earlier one: both must fire, in time order, whether the
// peeked event sits at level 0 or at level 1. A peek that moved the
// wheel's cursor to the peeked instant stranded the earlier event behind
// it, still counted as pending but never fired.
func TestNextEventTimeLosesNothing(t *testing.T) {
	for _, c := range []struct {
		name          string
		first, second Time
	}{
		{"level0", 1000 * Nanosecond, 500 * Nanosecond},
		{"level1", 100 * Microsecond, 50 * Microsecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine()
			var got []Time
			fire := func() { got = append(got, e.Now()) }
			e.At(c.first, fire)
			if next, ok := e.NextEventTime(); !ok || next != c.first {
				t.Fatalf("NextEventTime = %v, %v; want %v, true", next, ok, c.first)
			}
			if n := e.Cascades(); n != 0 {
				t.Fatalf("the peek cascaded %d events", n)
			}
			e.At(c.second, fire)
			if next, _ := e.NextEventTime(); next != c.second {
				t.Fatalf("NextEventTime = %v after scheduling %v", next, c.second)
			}
			e.Run()
			if want := []Time{c.second, c.first}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("fired at %v, want %v", got, want)
			}
			if _, ok := e.NextEventTime(); ok || e.Len() != 0 {
				t.Fatalf("%d events still pending after Run", e.Len())
			}
		})
	}
}

// TestNextEventTimeInsideRun peeks from inside a same-instant run: the
// rest of the run is the earliest pending work.
func TestNextEventTimeInsideRun(t *testing.T) {
	e := NewEngine()
	var peeked []Time
	peek := func() {
		next, _ := e.NextEventTime()
		peeked = append(peeked, next)
	}
	e.At(10*Nanosecond, peek)
	e.At(10*Nanosecond, peek)
	e.At(20*Microsecond, func() {})
	e.Run()
	if len(peeked) != 2 || peeked[0] != 10*Nanosecond || peeked[1] != 20*Microsecond {
		t.Fatalf("peeks inside the run saw %v, want [10ns 20us]", peeked)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(1*Nanosecond, func() { fired++; e.Stop() })
	e.At(2*Nanosecond, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("fired %d, want 1 after Stop", fired)
	}
}

func TestEventRefAt(t *testing.T) {
	e := NewEngine()
	ref := e.At(42*Nanosecond, func() {})
	if ref.At() != 42 {
		t.Fatalf("At() = %v, want 42", ref.At())
	}
	if (EventRef{}).At() != 0 || (EventRef{}).Valid() {
		t.Fatal("zero EventRef should be invalid")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{125 * Microsecond, "125us"},
		{sim15ms(), "1.5ms"},
		{2 * Second, "2s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func sim15ms() Time { return 1500 * Microsecond }

func TestTimeConversions(t *testing.T) {
	if !testutil.Eq((2 * Second).Seconds(), 2) {
		t.Error("Seconds conversion")
	}
	if !testutil.Eq((3 * Millisecond).Milliseconds(), 3) {
		t.Error("Milliseconds conversion")
	}
	if !testutil.Eq((7 * Microsecond).Microseconds(), 7) {
		t.Error("Microseconds conversion")
	}
}

// Property: for any batch of events with random times, execution order is
// exactly (time, insertion order).
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		type key struct {
			at  Time
			seq int
		}
		var want []key
		var got []key
		for i, d := range delays {
			i, at := i, Time(d)
			want = append(want, key{at, i})
			e.At(at, func() { got = append(got, key{e.Now(), i}) })
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		e.Run()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRandExpPositive(t *testing.T) {
	r := NewRand(1)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		d := r.Exp(100 * Microsecond)
		if d < 1 {
			t.Fatalf("Exp returned %v < 1ns", d)
		}
		sum += float64(d)
	}
	mean := sum / n
	if mean < 0.9*float64(100*Microsecond) || mean > 1.1*float64(100*Microsecond) {
		t.Fatalf("Exp mean %.0fns, want ~100000ns", mean)
	}
}

func TestRandRange(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 1000; i++ {
		v := r.Range(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("Range(3,7) = %d", v)
		}
	}
	if r.Range(5, 5) != 5 || r.Range(9, 2) != 9 {
		t.Fatal("degenerate ranges")
	}
}

// TestNewEngineFootprint pins the bytes one engine allocates up front:
// the wheel's slot arrays dominate, and a paper-scale sweep builds one
// engine per cell.
func TestNewEngineFootprint(t *testing.T) {
	const n = 16
	engines := make([]*Engine, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range engines {
		engines[i] = NewEngine()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 64<<10 {
		t.Fatalf("NewEngine allocates %d bytes, want at most %d", per, 64<<10)
	}
	runtime.KeepAlive(engines)
}

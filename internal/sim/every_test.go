package sim

import (
	"fmt"
	"strings"
	"testing"
)

// conserved reports whether the engine's conservation law holds: every
// scheduled event has fired, been canceled, or is still pending.
func conserved(e *Engine) bool {
	return e.Scheduled() == e.Executed+e.Canceled()+uint64(e.Len())
}

// sameTimes reports whether got lists exactly the instants wantNs, given
// in nanoseconds, in order.
func sameTimes(got []Time, wantNs ...int64) bool {
	if len(got) != len(wantNs) {
		return false
	}
	for i := range wantNs {
		if int64(got[i]) != wantNs[i] {
			return false
		}
	}
	return true
}

func TestEveryTicksWhileModelPending(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	e.Every(10*Nanosecond, func() { ticks = append(ticks, e.Now()) })
	e.At(35*Nanosecond, func() {})
	e.RunUntil(Microsecond)
	// The tick at 40 is the first after the model's last event: it still
	// runs fn, so the samples cover that event, then it finds only
	// itself pending and stops.
	if !sameTimes(ticks, 0, 10, 20, 30, 40) {
		t.Fatalf("ticks at %v, want [0 10 20 30 40]", ticks)
	}
	// The clock still runs to the deadline, as in a bare run.
	if e.Len() != 0 || e.Now() != Microsecond || len(e.tickers) != 0 {
		t.Fatalf("pending %d, now %v, tickers %d after drain", e.Len(), e.Now(), len(e.tickers))
	}
	// 5 ticks + 1 model event.
	if e.Executed != 6 || !conserved(e) {
		t.Fatalf("executed %d; scheduled %d canceled %d pending %d",
			e.Executed, e.Scheduled(), e.Canceled(), e.Len())
	}
}

func TestEveryTickersDoNotKeepEachOtherAlive(t *testing.T) {
	e := NewEngine()
	var a, b []Time
	e.Every(10*Nanosecond, func() { a = append(a, e.Now()) })
	e.Every(7*Nanosecond, func() { b = append(b, e.Now()) })
	// A canceled model event must not count as pending work.
	e.Cancel(e.At(500*Nanosecond, func() {}))
	e.At(25*Nanosecond, func() {})
	e.RunUntil(MaxTime)
	// Each ticks once past the model's last event at 25; a's tick at 30
	// completes the round and cancels b's tick at 35.
	if !sameTimes(a, 0, 10, 20, 30) || !sameTimes(b, 0, 7, 14, 21, 28) {
		t.Fatalf("a ticked at %v, b at %v; want [0 10 20 30] and [0 7 14 21 28]", a, b)
	}
	if e.Len() != 0 || len(e.tickers) != 0 || e.Canceled() != 2 || !conserved(e) {
		t.Fatalf("pending %d, tickers %d; scheduled %d executed %d canceled %d",
			e.Len(), len(e.tickers), e.Scheduled(), e.Executed, e.Canceled())
	}
}

func TestEveryWithoutModelTicksOnce(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Every(10*Nanosecond, func() { fired++ })
	e.Every(3*Nanosecond, func() { fired++ })
	e.Run()
	if fired != 2 || e.Executed != 2 || e.Len() != 0 || e.Now() != 0 {
		t.Fatalf("fired %d, executed %d, pending %d, now %v; want 2, 2, 0, 0",
			fired, e.Executed, e.Len(), e.Now())
	}
}

// TestEveryMatchesAfterChain replays one model against the two ways of
// ticking: Every, and the callback that re-arms itself with After. While
// model work is pending both must fire the same events at the same
// instants with the same Scheduled() counts. Afterwards Every's log must
// still match until each ticker has ticked once more, and end there, while
// the After chain ticks on to the deadline. This is what keeps a run's
// fingerprint a prefix of the old one that still covers the last model
// event.
func TestEveryMatchesAfterChain(t *testing.T) {
	const deadline = 5 * Microsecond
	run := func(every bool) (log []string, modelEvents int) {
		e := NewEngine()
		rng := NewRand(7)
		note := func(what string) {
			log = append(log, fmt.Sprintf("%s@%d s%d x%d p%d", what, e.Now(), e.Scheduled(), e.Executed, e.Len()))
		}
		ticker := func(name string, period Time) {
			fn := func() { note(name) }
			if every {
				e.Every(period, fn)
				return
			}
			var tick func()
			tick = func() {
				fn()
				e.After(period, tick)
			}
			e.After(0, tick)
		}
		ticker("fast", 13*Nanosecond)
		// A model that fans out and dies away, with cancels and
		// same-instant bursts; a second ticker starts mid-run.
		var spawn func(depth int)
		spawn = func(depth int) {
			modelEvents++
			note(fmt.Sprintf("model%d", depth))
			if depth == 0 {
				return
			}
			for i := 0; i < 2; i++ {
				d := Time(rng.Intn(40))
				if i == 1 {
					d = 0
				}
				e.After(d, func() { spawn(depth - 1) })
			}
			if rng.Intn(3) == 0 {
				e.Cancel(e.After(Time(rng.Intn(20)), func() { spawn(depth - 1) }))
			}
		}
		e.At(5*Nanosecond, func() { spawn(6) })
		e.At(60*Nanosecond, func() { ticker("slow", 41*Nanosecond) })
		e.RunUntil(deadline)
		if !conserved(e) {
			t.Fatalf("every=%v: conservation broken", every)
		}
		return log, modelEvents
	}
	got, gotModel := run(true)
	old, oldModel := run(false)
	if gotModel != oldModel || gotModel < 100 {
		t.Fatalf("model events %d vs %d; want equal and >= 100", gotModel, oldModel)
	}
	if len(got) >= len(old) {
		t.Fatalf("Every logged %d entries, After chain %d; Every must stop early", len(got), len(old))
	}
	for i := range got {
		if got[i] != old[i] {
			t.Fatalf("entry %d: Every %q, After chain %q", i, got[i], old[i])
		}
	}
	// Every's log holds every model event; what it cut off is ticks only.
	for _, s := range old[len(got):] {
		if strings.HasPrefix(s, "model") {
			t.Fatalf("Every stopped before model event %q", s)
		}
	}
	// After the last model event Every logged ticks until both tickers
	// had ticked, and nothing more.
	last := len(got) - 1
	for !strings.HasPrefix(got[last], "model") {
		last--
	}
	seen := map[string]bool{}
	end := last
	for end < len(old) && (!seen["fast"] || !seen["slow"]) {
		end++
		seen[strings.SplitN(old[end], "@", 2)[0]] = true
	}
	if len(got) != end+1 {
		t.Fatalf("after the last model event Every logged %q; want %q", got[last+1:], old[last+1:end+1])
	}
}

func TestEveryStopAndResume(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	e.Every(10*Nanosecond, func() { ticks = append(ticks, e.Now()) })
	e.At(15*Nanosecond, e.Stop)
	e.At(45*Nanosecond, func() {})
	e.RunUntil(Microsecond)
	if !sameTimes(ticks, 0, 10) || e.Now() != 15*Nanosecond {
		t.Fatalf("stopped at %v with ticks %v; want 15 and [0 10]", e.Now(), ticks)
	}
	e.RunUntil(Microsecond)
	if !sameTimes(ticks, 0, 10, 20, 30, 40, 50) || e.Now() != Microsecond || len(e.tickers) != 0 {
		t.Fatalf("resumed: ticks %v, now %v, tickers %d", ticks, e.Now(), len(e.tickers))
	}
	// Stopped stays stopped: new model work does not re-arm the ticker.
	e.At(1500*Nanosecond, func() {})
	e.RunUntil(2 * Microsecond)
	if len(ticks) != 6 || !conserved(e) {
		t.Fatalf("stopped ticker fired again: %v", ticks)
	}
}

// TestEveryRoundRestartsOnNewWork covers a deadline that falls after one
// ticker has seen the model idle but before the other has: model work the
// caller adds before resuming must be sampled by both tickers again.
func TestEveryRoundRestartsOnNewWork(t *testing.T) {
	e := NewEngine()
	var a, b []Time
	e.Every(10*Nanosecond, func() { a = append(a, e.Now()) })
	e.Every(25*Nanosecond, func() { b = append(b, e.Now()) })
	e.At(5*Nanosecond, func() {})
	e.RunUntil(12 * Nanosecond) // a ticked idle at 10, b has not yet
	e.At(42*Nanosecond, func() {})
	e.RunUntil(MaxTime)
	// b's tick at 50 precedes a's; had a's idle tick at 10 still counted,
	// it would have stopped both before a sampled past 42.
	if !sameTimes(a, 0, 10, 20, 30, 40, 50) || !sameTimes(b, 0, 25, 50) {
		t.Fatalf("a ticked at %v, b at %v; want [0 10 20 30 40 50] and [0 25 50]", a, b)
	}
	if e.Len() != 0 || len(e.tickers) != 0 || !conserved(e) {
		t.Fatalf("pending %d, tickers %d; scheduled %d executed %d canceled %d",
			e.Len(), len(e.tickers), e.Scheduled(), e.Executed, e.Canceled())
	}
}

func TestEveryRejectsNonPositivePeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0, fn) did not panic")
		}
	}()
	NewEngine().Every(0*Nanosecond, func() {})
}

// TestEveryTickAllocFree pins the zero-alloc tick: the re-arming closure
// is built once in Every and each tick recycles its event node.
func TestEveryTickAllocFree(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.Every(10*Nanosecond, func() { ticks++ })
	e.At(Time(1<<40), func() {}) // model work far past every tick below
	e.RunUntil(e.Now())
	if n := testing.AllocsPerRun(1000, func() {
		e.RunUntil(e.Now() + 10*Nanosecond)
	}); n != 0 { //tcnlint:floatexact AllocsPerRun must be exactly zero
		t.Fatalf("Every tick allocates %.1f per op, want 0", n)
	}
	if ticks != 1002 {
		t.Fatalf("ticks = %d, want 1002 (one per run plus t=0)", ticks)
	}
}

package sim

import "testing"

// BenchmarkEngineScheduleFire measures the schedule+fire round trip for a
// closure-free event once the freelist is warm. This is the hot loop of
// every simulation; it must be allocation-free.
func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	e.At(0, fn)
	e.Run() // warm the freelist
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now(), fn)
		e.RunUntil(e.Now())
	}
}

// BenchmarkEngineScheduleFireArg measures the AtArg variant used by the
// per-packet paths (link delivery, host delay lines).
func BenchmarkEngineScheduleFireArg(b *testing.B) {
	e := NewEngine()
	fn := func(any) {}
	arg := &struct{ x int }{}
	e.AtArg(0, fn, arg)
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AtArg(e.Now(), fn, arg)
		e.RunUntil(e.Now())
	}
}

// BenchmarkEngineScheduleCancel measures the arm/disarm cycle that RTO
// timers exercise on every ACK.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	e.Cancel(e.At(Nanosecond, fn))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cancel(e.At(Nanosecond, fn))
	}
}

// BenchmarkEngineHeapChurn keeps a deep pending set and measures fire plus
// reschedule against it — slot relinks and cascades in the wheel — rather
// than the trivial 1-element case. The name predates the wheel, from when
// the store was a binary heap, and is kept so tcnbench baselines stay
// comparable.
func BenchmarkEngineHeapChurn(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	r := NewRand(1)
	for i := 0; i < 1024; i++ {
		e.At(Time(r.Range(0, 1<<20)), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, _ := e.NextEventTime()
		e.RunUntil(next)
		e.At(e.Now()+Time(r.Range(1, 1<<20)), fn)
	}
}

// BenchmarkWheelSchedule measures schedule+fire across the wheel's levels:
// each batch files events at horizons from nanoseconds to milliseconds
// (levels 0-2, with cascades) and then drains them.
func BenchmarkWheelSchedule(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	r := NewRand(1)
	e.At(0, fn)
	e.Run() // warm the freelist
	b.ReportAllocs()
	b.ResetTimer()
	const batch = 1024
	for i := 0; i < b.N; i += batch {
		for j := 0; j < batch; j++ {
			e.After(Time(r.Range(0, int(10*Millisecond))), fn)
		}
		e.Run()
	}
}

// BenchmarkWheelCancel measures the arm/disarm cycle at an RTO-like
// horizon (level 1 of the wheel): schedule far out, cancel immediately —
// the churn every ACK inflicts on the engine.
func BenchmarkWheelCancel(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	e.Cancel(e.At(5*Millisecond, fn))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cancel(e.At(5*Millisecond, fn))
	}
}

// TestEngineScheduleFireAllocFree pins the zero-alloc property with
// AllocsPerRun so a regression fails tests, not just benchmarks.
func TestEngineScheduleFireAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	arg := &struct{ x int }{}
	afn := func(any) {}
	e.At(0, fn)
	e.Run()
	if n := testing.AllocsPerRun(1000, func() {
		e.At(e.Now(), fn)
		e.RunUntil(e.Now())
	}); n != 0 { //tcnlint:floatexact AllocsPerRun must be exactly zero
		t.Fatalf("At+fire allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		e.AtArg(e.Now(), afn, arg)
		e.RunUntil(e.Now())
	}); n != 0 { //tcnlint:floatexact AllocsPerRun must be exactly zero
		t.Fatalf("AtArg+fire allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		e.Cancel(e.At(Nanosecond, fn))
	}); n != 0 { //tcnlint:floatexact AllocsPerRun must be exactly zero
		t.Fatalf("At+Cancel allocates %.1f per op, want 0", n)
	}
}

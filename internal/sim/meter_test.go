package sim

import "testing"

// The meter batches locally (meterBatch events) and flushes at every
// RunUntil exit, so after any RunUntil returns — deadline reached, Stop
// mid-run, or nothing scheduled at all — the published totals must equal
// the engine's own counters exactly. These tests pin that contract; the
// profiler's FinishEngine and the perf campaign both rely on it.

// checkExact asserts the meter matches the engine's truth.
func checkExact(t *testing.T, m *Meter, eng *Engine) {
	t.Helper()
	if m.Events() != eng.Executed {
		t.Fatalf("meter events %d, want executed %d", m.Events(), eng.Executed)
	}
	if m.SimNanos() != int64(eng.Now()) {
		t.Fatalf("meter sim nanos %d, want elapsed %d", m.SimNanos(), int64(eng.Now()))
	}
}

// TestMeterExactOnStopTermination drives well past one flush batch and
// stops mid-run: the exit flush must publish the partial batch and the
// sim-time up to the stopping event, with nothing lost or double-counted.
func TestMeterExactOnStopTermination(t *testing.T) {
	eng := NewEngine()
	var m Meter
	eng.SetMeter(&m)
	const total = 3*meterBatch + 17
	n := 0
	var tick func()
	tick = func() {
		n++
		if n == total {
			eng.Stop()
			return
		}
		eng.After(3*Nanosecond, tick)
	}
	eng.After(0*Nanosecond, tick)
	eng.RunUntil(MaxTime)
	if eng.Executed != total {
		t.Fatalf("executed %d events, want %d", eng.Executed, total)
	}
	checkExact(t, &m, eng)
	// A later resumed run keeps the totals exact.
	eng.After(5*Nanosecond, func() {})
	eng.RunUntil(eng.Now() + 100*Nanosecond)
	checkExact(t, &m, eng)
}

// TestMeterExactOnZeroEventRun pins the degenerate case: RunUntil with an
// empty schedule executes nothing but still advances the clock to the
// deadline, and that advance must reach the meter.
func TestMeterExactOnZeroEventRun(t *testing.T) {
	eng := NewEngine()
	var m Meter
	eng.SetMeter(&m)
	eng.RunUntil(12345 * Nanosecond)
	if eng.Executed != 0 {
		t.Fatalf("executed %d events, want 0", eng.Executed)
	}
	checkExact(t, &m, eng)
	if m.SimNanos() != 12345 {
		t.Fatalf("meter sim nanos %d, want the 12345ns deadline advance", m.SimNanos())
	}
}

// TestMeterDetachFlushesResidual pins SetMeter's handoff: detaching (or
// swapping) mid-campaign must first flush the locally batched residual to
// the old meter, and the replacement must start from a clean baseline
// rather than re-publishing progress the old meter already absorbed.
func TestMeterDetachFlushesResidual(t *testing.T) {
	eng := NewEngine()
	var old Meter
	eng.SetMeter(&old)
	for i := 0; i < 10; i++ {
		eng.At(Time(i+1)*Nanosecond, func() {})
	}
	eng.RunUntil(50 * Nanosecond)
	checkExact(t, &old, eng)

	var next Meter
	eng.SetMeter(&next)
	eng.At(60*Nanosecond, func() {})
	eng.RunUntil(100 * Nanosecond)
	if old.Events() != 10 || old.SimNanos() != 50 {
		t.Fatalf("old meter moved after detach: events=%d sim=%d", old.Events(), old.SimNanos())
	}
	if next.Events() != 1 || next.SimNanos() != 50 {
		t.Fatalf("next meter events=%d sim=%d, want 1/50 (progress since the swap)", next.Events(), next.SimNanos())
	}
	eng.SetMeter(nil)
	eng.At(110*Nanosecond, func() {})
	eng.RunUntil(200 * Nanosecond)
	if next.Events() != 1 || next.SimNanos() != 50 {
		t.Fatalf("detached meter moved: events=%d sim=%d", next.Events(), next.SimNanos())
	}
}

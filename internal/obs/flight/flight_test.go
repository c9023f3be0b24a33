package flight

import (
	"bytes"
	"strings"
	"testing"

	"tcn/internal/sim"
)

func TestSeriesRecordsUntilCapacity(t *testing.T) {
	s := newSeries("s", 8)
	for i := 0; i < 8; i++ {
		s.Record(sim.Time(i), float64(i))
	}
	if s.Len() != 8 || s.Stride() != 1 {
		t.Fatalf("len=%d stride=%d, want 8/1", s.Len(), s.Stride())
	}
	for i, p := range s.Points() {
		//tcnlint:floatexact values stored verbatim; retrieval must be exact
		if p.At != sim.Time(i) || p.V != float64(i) {
			t.Fatalf("point %d = %+v", i, p)
		}
	}
}

func TestSeriesDownsamplesDeterministically(t *testing.T) {
	// Capacity 8, offer 0..31: after wraps the ring must hold a uniform
	// strided subsample that always includes the first point.
	s := newSeries("s", 8)
	for i := 0; i < 32; i++ {
		s.Record(sim.Time(i), float64(i))
	}
	if s.Offered() != 32 {
		t.Fatalf("offered = %d", s.Offered())
	}
	if s.Stride() != 4 {
		t.Fatalf("stride = %d, want 4", s.Stride())
	}
	pts := s.Points()
	if pts[0].At != 0 {
		t.Fatalf("first retained point %v, want t=0", pts[0])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].At-pts[i-1].At != sim.Time(s.Stride()) {
			t.Fatalf("non-uniform spacing at %d: %v -> %v (stride %d)",
				i, pts[i-1].At, pts[i].At, s.Stride())
		}
	}
}

// record exercises a recorder with a deterministic synthetic load and
// returns its CSV export.
func record(capacity, points int) string {
	r := New(Config{SeriesCap: capacity})
	a := r.SeriesCap("a", capacity)
	b := r.SeriesCap("b", capacity)
	for i := 0; i < points; i++ {
		a.Record(sim.Time(i)*sim.Microsecond, float64(i%97)*0.5)
		if i%3 == 0 {
			b.Record(sim.Time(i)*sim.Microsecond, float64(i))
		}
	}
	var buf bytes.Buffer
	if err := r.WriteTimeseriesCSV(&buf); err != nil {
		panic(err)
	}
	return buf.String()
}

func TestTimeseriesCSVByteIdentical(t *testing.T) {
	// Same config + same offered sequence => byte-identical export, even
	// when the rings wrapped several times.
	x := record(64, 10_000)
	y := record(64, 10_000)
	if x != y {
		t.Fatal("identical runs exported different CSV bytes")
	}
	lines := strings.Split(strings.TrimSpace(x), "\n")
	if lines[0] != "series,time_ns,value" {
		t.Fatalf("header = %q", lines[0])
	}
	// Wrapped rings stay within capacity.
	if n := len(lines) - 1; n > 2*64 {
		t.Fatalf("%d points exported, capacity 64 per series", n)
	}
}

func TestProbeTicksOnSimClock(t *testing.T) {
	eng := sim.NewEngine()
	r := New(Config{Period: 10 * sim.Microsecond})
	v := 0.0
	s := r.Probe(eng, "probe", 0, func(now sim.Time) float64 {
		v++
		return v
	})
	// Probes sample only while the model has work left; one no-op model
	// event past the deadline keeps this one sampling up to it.
	eng.At(100*sim.Microsecond+1, func() {})
	eng.RunUntil(100 * sim.Microsecond)
	// Ticks at 0, 10us, ..., 100us inclusive.
	if s.Len() != 11 {
		t.Fatalf("samples = %d, want 11", s.Len())
	}
	//tcnlint:floatexact the probe returns exact small integers
	if last := s.Last(); last.At != 100*sim.Microsecond || last.V != 11 {
		t.Fatalf("last = %+v", last)
	}
}

func TestProbeStopsWhenModelDrains(t *testing.T) {
	eng := sim.NewEngine()
	r := New(Config{Period: 10 * sim.Microsecond})
	fast := r.Probe(eng, "fast", 0, func(sim.Time) float64 { return 1 })
	slow := r.Probe(eng, "slow", 30*sim.Microsecond, func(sim.Time) float64 { return 1 })
	eng.At(45*sim.Microsecond, func() {}) // the model's last event
	eng.RunUntil(sim.Second)
	// Each samples once more after the model's last event at 45us: fast
	// at 50us, slow at 60us, where its tick precedes fast's and stops
	// both. Neither keeps the other alive, and the clock still reaches
	// the deadline.
	if fast.Offered() != 6 || fast.Last().At != 50*sim.Microsecond {
		t.Fatalf("fast: %d samples, last %+v", fast.Offered(), fast.Last())
	}
	if slow.Offered() != 3 || slow.Last().At != 60*sim.Microsecond {
		t.Fatalf("slow: %d samples, last %+v", slow.Offered(), slow.Last())
	}
	if eng.Len() != 0 || eng.Now() != sim.Second {
		t.Fatalf("pending %d at %v, want drained at 1s", eng.Len(), eng.Now())
	}
}

// TestProbeRunsOnlyForKeptSamples drives a pure probe and a rate probe
// on one ticker long enough for their 8-point series to wrap several
// times. The pure probe must run only for the samples its series keeps,
// the rate probe on every tick, and both series must match a series fed
// every tick's value.
func TestProbeRunsOnlyForKeptSamples(t *testing.T) {
	eng := sim.NewEngine()
	r := New(Config{Period: 10 * sim.Microsecond, SeriesCap: 8})
	pureCalls, counter := 0, int64(0)
	pure := r.Probe(eng, "pure", 0, func(now sim.Time) float64 {
		pureCalls++
		return float64(now)
	})
	rateProbe(r, eng, "rate", 1, func() int64 { return counter })
	// The model bumps the counter by a different amount every period.
	for i := int64(1); i <= 100; i++ {
		eng.At(sim.Time(i)*10*sim.Microsecond-1, func() { counter += i * i })
	}
	wantPure, wantRate := newSeries("pure", 8), newSeries("rate", 8)
	var last int64
	keeps := 0
	eng.Every(10*sim.Microsecond, func() {
		now := eng.Now()
		if wantPure.skip == 0 {
			keeps++
		}
		wantPure.Record(now, float64(now))
		wantRate.Record(now, float64(counter-last)*(1/(10*sim.Microsecond).Seconds())*1)
		last = counter
	})
	eng.RunUntil(sim.Second)

	rate := r.byName["rate"]
	if pure.Offered() != wantPure.Offered() || rate.Offered() != wantRate.Offered() {
		t.Fatalf("offered pure %d rate %d, want %d", pure.Offered(), rate.Offered(), wantPure.Offered())
	}
	if pure.Stride() < 8 {
		t.Fatalf("stride %d: the series did not wrap enough to thin", pure.Stride())
	}
	if pureCalls != keeps {
		t.Fatalf("pure probe ran %d times for %d offered samples, %d kept", pureCalls, pure.Offered(), keeps)
	}
	for _, c := range []struct{ got, want *Series }{{pure, wantPure}, {rate, wantRate}} {
		got, want := c.got.Points(), c.want.Points()
		if len(got) != len(want) {
			t.Fatalf("%s: %d points, want %d", c.got.Name(), len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] { //tcnlint:floatexact both sides compute the same expression
				t.Fatalf("%s point %d: %+v, want %+v", c.got.Name(), i, got[i], want[i])
			}
		}
	}
}

func TestProbesShareTicker(t *testing.T) {
	eng := sim.NewEngine()
	r := New(Config{})
	order := []string{}
	r.Probe(eng, "x", sim.Millisecond, func(sim.Time) float64 {
		order = append(order, "x")
		return 0
	})
	r.Probe(eng, "y", sim.Millisecond, func(sim.Time) float64 {
		order = append(order, "y")
		return 0
	})
	if len(r.tickers) != 1 {
		t.Fatalf("tickers = %d, want 1 shared", len(r.tickers))
	}
	eng.At(sim.Millisecond+1, func() {}) // model work past the deadline
	eng.RunUntil(sim.Millisecond)
	want := []string{"x", "y", "x", "y"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestExpositionPublishAndSeal(t *testing.T) {
	eng := sim.NewEngine()
	r := New(Config{Period: 10 * sim.Microsecond})
	r.Probe(eng, "p", 0, func(now sim.Time) float64 { return now.Seconds() })
	eng.At(100*sim.Microsecond+1, func() {}) // model work past both deadlines

	if r.Latest() != nil {
		t.Fatal("exposition published before any tick")
	}
	r.RequestPublish()
	eng.RunUntil(50 * sim.Microsecond)
	e1 := r.Latest()
	if e1 == nil {
		t.Fatal("no exposition after requested publish")
	}
	if !strings.HasPrefix(string(e1.Timeseries), "series,time_ns,value\n") {
		t.Fatalf("timeseries = %q", e1.Timeseries)
	}
	// No new request: further ticks must not re-render.
	eng.RunUntil(100 * sim.Microsecond)
	if e2 := r.Latest(); e2.Gen != e1.Gen {
		t.Fatalf("unrequested re-publish: gen %d -> %d", e1.Gen, e2.Gen)
	}
	r.Seal()
	select {
	case <-r.Done():
	default:
		t.Fatal("Done not closed after Seal")
	}
	if e3 := r.Latest(); e3.Gen <= e1.Gen {
		t.Fatalf("seal did not publish a final exposition (gen %d)", e3.Gen)
	}
	r.Seal() // idempotent
}

func TestSeriesHelpers(t *testing.T) {
	s := newSeries("s", 16)
	for i := 1; i <= 10; i++ {
		s.Record(sim.Time(i)*sim.Millisecond, float64(i))
	}
	//tcnlint:floatexact recorded values are exact small integers
	if m := s.Max(); m != 10 {
		t.Fatalf("max = %v", m)
	}
	//tcnlint:floatexact recorded values are exact small integers
	if m := s.MaxBetween(2*sim.Millisecond, 5*sim.Millisecond); m != 5 {
		t.Fatalf("maxBetween = %v", m)
	}
	//tcnlint:floatexact (2+3+4)/3 is exact in binary floating point
	if m := s.MeanBetween(2*sim.Millisecond, 4*sim.Millisecond); m != 3 {
		t.Fatalf("meanBetween = %v", m)
	}
	//tcnlint:floatexact the empty window returns literal zero
	if m := s.MeanBetween(sim.Second, 2*sim.Second); m != 0 {
		t.Fatalf("empty window mean = %v", m)
	}
}

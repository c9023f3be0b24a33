package metrics

import (
	"fmt"

	"tcn/internal/sim"
)

// GoodputMeter bins delivered application bytes per service class over
// fixed time windows, producing the goodput-versus-time series of
// Figures 1 and 5a.
type GoodputMeter struct {
	bin     sim.Time
	classes int
	bins    [][]int64 // [class][bin] bytes
}

// NewGoodputMeter returns a meter for the given number of classes binning
// at the given granularity.
func NewGoodputMeter(classes int, bin sim.Time) *GoodputMeter {
	if classes <= 0 || bin <= 0 {
		panic(fmt.Sprintf("metrics: bad goodput meter classes=%d bin=%v", classes, bin))
	}
	return &GoodputMeter{bin: bin, classes: classes, bins: make([][]int64, classes)}
}

// Add credits delivered bytes to a class at the given time.
func (g *GoodputMeter) Add(now sim.Time, class int, bytes int) {
	if class < 0 || class >= g.classes {
		return
	}
	i := int(now / g.bin)
	for len(g.bins[class]) <= i {
		g.bins[class] = append(g.bins[class], 0) //tcnlint:hotpath grows once per elapsed time bin, not per packet
	}
	g.bins[class][i] += int64(bytes)
}

// validClass reports whether class is in range. The accessors below use
// it so they are consistent with Add, which silently ignores
// out-of-range classes instead of panicking.
func (g *GoodputMeter) validClass(class int) bool {
	return class >= 0 && class < g.classes
}

// SeriesMbps returns the per-bin goodput of a class in Mbps, or nil for
// an out-of-range class.
func (g *GoodputMeter) SeriesMbps(class int) []float64 {
	if !g.validClass(class) {
		return nil
	}
	out := make([]float64, len(g.bins[class]))
	for i, b := range g.bins[class] {
		out[i] = float64(b) * 8 / g.bin.Seconds() / 1e6
	}
	return out
}

// TotalBytes returns all bytes credited to a class, or 0 for an
// out-of-range class.
func (g *GoodputMeter) TotalBytes(class int) int64 {
	if !g.validClass(class) {
		return 0
	}
	var n int64
	for _, b := range g.bins[class] {
		n += b
	}
	return n
}

// AvgMbpsBetween returns a class's average goodput between two instants,
// rounded inward to whole bins so partially covered bins do not skew the
// average. Out-of-range classes yield 0.
func (g *GoodputMeter) AvgMbpsBetween(class int, from, to sim.Time) float64 {
	if !g.validClass(class) {
		return 0
	}
	i0 := int((from + g.bin - 1) / g.bin) // first bin fully inside
	i1 := int(to / g.bin)                 // first bin not fully inside
	if i1 > len(g.bins[class]) {
		i1 = len(g.bins[class])
	}
	if i1 <= i0 {
		return 0
	}
	var n int64
	for i := i0; i < i1; i++ {
		n += g.bins[class][i]
	}
	span := sim.Time(i1-i0) * g.bin
	return float64(n) * 8 / span.Seconds() / 1e6
}

// Sample is one point of a time series. Periodic polling itself now
// lives in internal/obs/flight (Recorder.Probe), which supersedes the
// Sampler this package used to provide.
type Sample struct {
	At    sim.Time
	Value float64
}

package flight

import "tcn/internal/sim"

// Point is one sample of a time series: a sim-clock instant and a value.
type Point struct {
	At sim.Time
	V  float64
}

// Series is a fixed-capacity time-series ring with deterministic
// downsampling: when the ring fills, every second retained point is
// dropped and the acceptance stride doubles, so a series of any length
// fits the same memory at progressively coarser (but uniform) resolution.
// The retained points are always a strided prefix-preserving subsample of
// the offered sequence, which makes exports byte-identical for identical
// runs — unlike a wrapping ring, which keeps a phase-dependent suffix.
//
// Record never allocates: the backing array is sized once at creation and
// compaction happens in place.
type Series struct {
	name    string
	pts     []Point // len <= cap, cap fixed at creation
	stride  int     // accept every stride-th offered point
	skip    int     // offers to discard before the next accepted one
	offered int64   // total points offered, including thinned ones
}

// newSeries returns an empty series. Capacity is rounded up to an even
// number of at least 2 so halving is exact.
func newSeries(name string, capacity int) *Series {
	if capacity < 2 {
		capacity = 2
	}
	if capacity%2 != 0 {
		capacity++
	}
	return &Series{name: name, pts: make([]Point, 0, capacity), stride: 1}
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Record offers one sample. Depending on the current stride it is either
// retained or deterministically discarded.
func (s *Series) Record(at sim.Time, v float64) {
	if !s.thin() {
		s.keep(at, v)
	}
}

// thin offers one sample ahead of its value: when the stride discards
// it, thin counts it and reports true; otherwise it reports false and the
// caller must keep the sample. Probes use it to skip computing values the
// series would throw away.
func (s *Series) thin() bool {
	if s.skip == 0 {
		return false
	}
	s.skip--
	s.offered++
	return true
}

// keep retains one sample the stride accepted.
func (s *Series) keep(at sim.Time, v float64) {
	s.offered++
	if len(s.pts) == cap(s.pts) {
		s.compact()
	}
	s.pts = append(s.pts, Point{At: at, V: v}) //tcnlint:hotpath capacity-guarded: compact() above frees a slot before the ring is full
	s.skip = s.stride - 1
}

// compact halves the retained points (keeping even indices, so the first
// point is always preserved) and doubles the stride.
func (s *Series) compact() {
	n := 0
	for i := 0; i < len(s.pts); i += 2 {
		s.pts[n] = s.pts[i]
		n++
	}
	s.pts = s.pts[:n]
	s.stride *= 2
}

// Points returns the retained samples in chronological order. The slice
// aliases the ring; callers must not mutate or retain it across Records.
func (s *Series) Points() []Point { return s.pts }

// Len returns the number of retained samples.
func (s *Series) Len() int { return len(s.pts) }

// Stride returns the current acceptance stride (1 until the first wrap,
// then doubling on each).
func (s *Series) Stride() int { return s.stride }

// Offered returns how many samples were offered, including discarded ones.
func (s *Series) Offered() int64 { return s.offered }

// Last returns the most recent retained sample, or a zero Point when empty.
func (s *Series) Last() Point {
	if len(s.pts) == 0 {
		return Point{}
	}
	return s.pts[len(s.pts)-1]
}

// Max returns the largest retained value.
func (s *Series) Max() float64 {
	var m float64
	for _, p := range s.pts {
		if p.V > m {
			m = p.V
		}
	}
	return m
}

// MaxBetween returns the largest retained value within [from, to].
func (s *Series) MaxBetween(from, to sim.Time) float64 {
	var m float64
	for _, p := range s.pts {
		if p.At >= from && p.At <= to && p.V > m {
			m = p.V
		}
	}
	return m
}

// MeanBetween averages the retained values within [from, to].
func (s *Series) MeanBetween(from, to sim.Time) float64 {
	var sum float64
	var n int
	for _, p := range s.pts {
		if p.At >= from && p.At <= to {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

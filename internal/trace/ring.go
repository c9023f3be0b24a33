package trace

import "fmt"

// ring keeps the most recent values in a buffer of fixed capacity: once
// full, each push overwrites the oldest. The tracer, ledger and pipeline
// each retain their events in one.
type ring[T any] struct {
	buf    []T
	next   int  // slot the next push overwrites once the ring is full
	filled bool // the ring has wrapped at least once
}

func newRing[T any](capacity int) ring[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("trace: capacity %d must be positive", capacity))
	}
	return ring[T]{buf: make([]T, 0, capacity)}
}

func (r *ring[T]) push(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v) //tcnlint:hotpath capacity-guarded; the ring never reallocates
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % cap(r.buf)
	r.filled = true
}

// ordered returns fn of each retained value, oldest first.
func ordered[T, V any](r *ring[T], fn func(*T) V) []V {
	out := make([]V, 0, len(r.buf))
	for i := range r.buf {
		out = append(out, fn(&r.buf[(r.next+i)%len(r.buf)]))
	}
	return out
}

package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// median returns the median of xs (the mean of the middle two for an
// even count); xs is not modified. It returns 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

const (
	heapObjectsMetric = "/memory/classes/heap/objects:bytes"
	// peakSamplePeriod is how often the heap is sampled during a run.
	peakSamplePeriod = time.Millisecond
)

// cost is what one call of fn cost the host.
type cost struct {
	wallS   float64
	allocMB float64 // MB allocated during the call
	peakMB  float64 // largest heap in use (live and not yet swept objects)
}

// measure runs fn on the calling goroutine while a sampler goroutine
// tracks the heap high-water mark; it waits for the sampler to exit.
// Allocation is the TotalAlloc delta of runtime.ReadMemStats, which,
// unlike runtime/metrics, counts what per-P caches have not yet flushed.
func measure(fn func()) cost {
	stop := make(chan struct{})
	peak := make(chan uint64)
	var m0, m1 runtime.MemStats
	go func() {
		t := time.NewTicker(peakSamplePeriod)
		defer t.Stop()
		// One sample slice for the whole run, so sampling adds nothing to
		// the allocation being measured.
		s := []metrics.Sample{{Name: heapObjectsMetric}}
		var hi uint64
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > hi {
				hi = v
			}
			select {
			case <-stop:
				peak <- hi
				return
			case <-t.C:
			}
		}
	}()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	close(stop)
	hi := max(<-peak, m1.HeapAlloc)
	return cost{wallS: wall.Seconds(), allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6, peakMB: float64(hi) / 1e6}
}

// timeOp times op(n) for one repeat of a ladder rung and returns ns per
// iteration.
func timeOp(op func(n int), n int) float64 {
	t0 := time.Now()
	op(n)
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// seriesDelta summarizes one flight-recorder series across the two runs.
type seriesDelta struct {
	name               string
	pointsA, pointsB   int
	maxDelta           float64
	maxAt              int64
	misaligned         bool // sample timestamps disagree at some index
	presentA, presentB bool
}

// clean reports whether the series matched exactly.
func (s seriesDelta) clean() bool {
	return s.presentA && s.presentB && !s.misaligned &&
		s.pointsA == s.pointsB && s.maxDelta == 0 //tcnlint:floatexact exact-match test: any nonzero delta is a difference
}

type seriesPoint struct {
	at int64
	v  float64
}

// readSeriesCSV reads the timeseries CSV at path; see parseSeriesCSV.
func readSeriesCSV(path string) (map[string][]seriesPoint, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	byName, order, err := parseSeriesCSV(f)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return byName, order, nil
}

// parseSeriesCSV parses a `series,time_ns,value` CSV (the tcnsim
// -timeseries export) into per-series point lists, preserving
// first-appearance order of the series names.
func parseSeriesCSV(r io.Reader) (map[string][]seriesPoint, []string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	byName := map[string][]seriesPoint{}
	var order []string
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if line == 1 {
			if text != "series,time_ns,value" {
				return nil, nil, fmt.Errorf("not a timeseries CSV (header %q)", text)
			}
			continue
		}
		if text == "" {
			continue
		}
		parts := strings.SplitN(text, ",", 3)
		if len(parts) != 3 {
			return nil, nil, fmt.Errorf("line %d: malformed row %q", line, text)
		}
		at, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: bad time %q", line, parts[1])
		}
		v, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: bad value %q", line, parts[2])
		}
		if _, ok := byName[parts[0]]; !ok {
			order = append(order, parts[0])
		}
		byName[parts[0]] = append(byName[parts[0]], seriesPoint{at: at, v: v})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return byName, order, nil
}

// diffSeries compares two timeseries exports per series: point counts,
// timestamp alignment, and the maximum absolute value delta over the
// aligned prefix. Series are reported in run A's order, with run-B-only
// series appended in B's order.
func diffSeries(pathA, pathB string) ([]seriesDelta, error) {
	a, orderA, err := readSeriesCSV(pathA)
	if err != nil {
		return nil, err
	}
	b, orderB, err := readSeriesCSV(pathB)
	if err != nil {
		return nil, err
	}
	var out []seriesDelta
	for _, name := range orderA {
		d := seriesDelta{name: name, presentA: true}
		pa := a[name]
		d.pointsA = len(pa)
		pb, ok := b[name]
		if ok {
			d.presentB = true
			d.pointsB = len(pb)
			n := len(pa)
			if len(pb) < n {
				n = len(pb)
			}
			for i := 0; i < n; i++ {
				if pa[i].at != pb[i].at {
					d.misaligned = true
					break
				}
				if delta := math.Abs(pa[i].v - pb[i].v); delta > d.maxDelta {
					d.maxDelta = delta
					d.maxAt = pa[i].at
				}
			}
		}
		out = append(out, d)
	}
	for _, name := range orderB {
		if _, ok := a[name]; !ok {
			out = append(out, seriesDelta{name: name, presentB: true, pointsB: len(b[name])})
		}
	}
	return out, nil
}

package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// profileDelta is one component stack whose cost differs between the two
// runs' folded cost profiles (tcnsim -profile-folded).
type profileDelta struct {
	stack              string
	va, vb             int64
	presentA, presentB bool
}

func (p profileDelta) delta() int64 { return p.vb - p.va }

// readFolded reads the folded-stacks export at path; see parseFolded.
func readFolded(path string) (map[string]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out, err := parseFolded(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// parseFolded parses a folded-stacks export: one `frame;frame;... value`
// line per component stack, the value being executed events (or wall
// nanoseconds under -profile-wall). Frames never contain spaces, so the
// value is everything after the last space.
func parseFolded(r io.Reader) (map[string]int64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	out := map[string]int64{}
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		i := strings.LastIndexByte(text, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("line %d: malformed folded line %q", line, text)
		}
		v, err := strconv.ParseInt(text[i+1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q", line, text[i+1:])
		}
		if _, dup := out[text[:i]]; dup {
			return nil, fmt.Errorf("line %d: duplicate stack %q", line, text[:i])
		}
		out[text[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// diffProfiles compares two folded cost profiles and returns the total
// stack count plus every differing stack, largest |Δ| first (ties broken
// by stack name so the report is deterministic). A stack missing from one
// side counts as cost 0 there and is annotated in the text report.
func diffProfiles(pathA, pathB string) (stacks int, deltas []profileDelta, err error) {
	a, err := readFolded(pathA)
	if err != nil {
		return 0, nil, err
	}
	b, err := readFolded(pathB)
	if err != nil {
		return 0, nil, err
	}
	names := make([]string, 0, len(a)+len(b))
	//tcnlint:ordered names are sorted below
	for s := range a {
		names = append(names, s)
	}
	//tcnlint:ordered names are sorted below
	for s := range b {
		if _, ok := a[s]; !ok {
			names = append(names, s)
		}
	}
	sort.Strings(names)
	for _, s := range names {
		va, inA := a[s]
		vb, inB := b[s]
		if inA && inB && va == vb {
			continue
		}
		deltas = append(deltas, profileDelta{stack: s, va: va, vb: vb, presentA: inA, presentB: inB})
	}
	sort.SliceStable(deltas, func(i, j int) bool {
		di, dj := deltas[i].delta(), deltas[j].delta()
		if di < 0 {
			di = -di
		}
		if dj < 0 {
			dj = -dj
		}
		if di != dj {
			return di > dj
		}
		return deltas[i].stack < deltas[j].stack
	})
	return len(names), deltas, nil
}

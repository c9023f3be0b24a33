package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The artifact parsers must reject malformed input with an error, never a
// panic, and what they accept must survive a round trip: rendering the
// parsed value back into the artifact's format and parsing it again gives
// the same value.

// addFile seeds a fuzz target with one testdata file.
func addFile(f *testing.F, path string) {
	f.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
}

func FuzzParseFolded(f *testing.F) {
	addFile(f, "testdata/a.folded")
	f.Add([]byte("engine 1\nengine 2\n"))
	f.Add([]byte("nospace\n"))
	f.Add([]byte(" 5\na;b x\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := parseFolded(bytes.NewReader(data))
		if err != nil {
			return
		}
		stacks := make([]string, 0, len(got))
		//tcnlint:ordered stacks are sorted below
		for s := range got {
			stacks = append(stacks, s)
		}
		sort.Strings(stacks)
		var out strings.Builder
		for _, s := range stacks {
			out.WriteString(s + " " + strconv.FormatInt(got[s], 10) + "\n")
		}
		again, err := parseFolded(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("rendered profile does not parse: %v\n%s", err, out.String())
		}
		if len(again) != len(got) {
			t.Fatalf("round trip kept %d of %d stacks", len(again), len(got))
		}
		//tcnlint:ordered lookups only
		for s, v := range got {
			if again[s] != v {
				t.Fatalf("stack %q: %d after the round trip, %d before", s, again[s], v)
			}
		}
	})
}

func FuzzParseSeriesCSV(f *testing.F) {
	addFile(f, "testdata/a.csv")
	f.Add([]byte("series,time_ns,value\na,1,NaN\na,2,0x1p-2\n"))
	f.Add([]byte("series,time_ns,value\na,1\n"))
	f.Add([]byte("time,value\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		byName, order, err := parseSeriesCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(order) != len(byName) {
			t.Fatalf("%d names in order, %d series", len(order), len(byName))
		}
		var out strings.Builder
		out.WriteString("series,time_ns,value\n")
		for _, name := range order {
			pts, ok := byName[name]
			if !ok || len(pts) == 0 {
				t.Fatalf("series %q is ordered but has no points", name)
			}
			for _, p := range pts {
				out.WriteString(name + "," + strconv.FormatInt(p.at, 10) + "," + strconv.FormatFloat(p.v, 'g', -1, 64) + "\n")
			}
		}
		byName2, order2, err := parseSeriesCSV(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("rendered CSV does not parse: %v\n%s", err, out.String())
		}
		if strings.Join(order2, "\n") != strings.Join(order, "\n") {
			t.Fatalf("series order %q after the round trip, %q before", order2, order)
		}
		for _, name := range order {
			a, b := byName[name], byName2[name]
			if len(a) != len(b) {
				t.Fatalf("series %q: %d points after the round trip, %d before", name, len(b), len(a))
			}
			for i := range a {
				if a[i].at != b[i].at || math.Float64bits(a[i].v) != math.Float64bits(b[i].v) {
					t.Fatalf("series %q point %d: %+v after the round trip, %+v before", name, i, b[i], a[i])
				}
			}
		}
	})
}

func FuzzParseLedgerCounts(f *testing.F) {
	addFile(f, "testdata/a.ledger.jsonl")
	f.Add([]byte(`{"count":true,"where":"p","queue":1,"reason":"r","n":2}` + "\n" + `{"count":true,"where":"p","queue":1,"reason":"r","n":3}`))
	f.Add([]byte(`{"count":true,"queue":"x"}`))
	f.Add([]byte("not json\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := parseLedgerCounts(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		enc := json.NewEncoder(&out)
		//tcnlint:ordered every cell is a separate line; order does not matter to the parser
		for k, n := range got {
			line := struct {
				Count  bool   `json:"count"`
				Where  string `json:"where"`
				Queue  int    `json:"queue"`
				Reason string `json:"reason"`
				N      int64  `json:"n"`
			}{true, k.where, k.queue, k.reason, n}
			if err := enc.Encode(line); err != nil {
				t.Fatal(err)
			}
		}
		again, err := parseLedgerCounts(&out)
		if err != nil {
			t.Fatalf("rendered ledger does not parse: %v", err)
		}
		if len(again) != len(got) {
			t.Fatalf("round trip kept %d of %d cells", len(again), len(got))
		}
		//tcnlint:ordered lookups only
		for k, n := range got {
			if again[k] != n {
				t.Fatalf("cell %+v: %d after the round trip, %d before", k, again[k], n)
			}
		}
	})
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// ledgerDelta is one (port, queue, reason) cell whose exact decision
// counts differ between the runs.
type ledgerDelta struct {
	where  string
	queue  int
	reason string
	na, nb int64
}

// ledgerCellKey addresses one exact-counter line of a ledger export.
type ledgerCellKey struct {
	where  string
	queue  int
	reason string
}

// readLedgerCounts reads the ledger export at path; see parseLedgerCounts.
func readLedgerCounts(path string) (map[ledgerCellKey]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out, err := parseLedgerCounts(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// parseLedgerCounts extracts the {"count":true,...} exact-counter lines
// from a tcnsim -ledger JSONL export; verdict and summary lines are
// skipped.
func parseLedgerCounts(r io.Reader) (map[ledgerCellKey]int64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	out := map[ledgerCellKey]int64{}
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var l struct {
			Count  bool   `json:"count"`
			Where  string `json:"where"`
			Queue  int    `json:"queue"`
			Reason string `json:"reason"`
			N      int64  `json:"n"`
		}
		if err := json.Unmarshal(raw, &l); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if !l.Count {
			continue
		}
		out[ledgerCellKey{where: l.Where, queue: l.Queue, reason: l.Reason}] = l.N
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// diffLedgers compares the exact reason tables of two ledger exports and
// returns every differing cell in (where, queue, reason) order. Cells
// present in only one run compare against zero.
func diffLedgers(pathA, pathB string) ([]ledgerDelta, error) {
	a, err := readLedgerCounts(pathA)
	if err != nil {
		return nil, err
	}
	b, err := readLedgerCounts(pathB)
	if err != nil {
		return nil, err
	}
	keySet := map[ledgerCellKey]bool{}
	//tcnlint:ordered keys are collected then sorted below
	for k := range a {
		keySet[k] = true
	}
	//tcnlint:ordered keys are collected then sorted below
	for k := range b {
		keySet[k] = true
	}
	keys := make([]ledgerCellKey, 0, len(keySet))
	//tcnlint:ordered keys are sorted before use
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		x, y := keys[i], keys[j]
		if x.where != y.where {
			return x.where < y.where
		}
		if x.queue != y.queue {
			return x.queue < y.queue
		}
		return x.reason < y.reason
	})
	var out []ledgerDelta
	for _, k := range keys {
		if a[k] != b[k] {
			out = append(out, ledgerDelta{where: k.where, queue: k.queue, reason: k.reason, na: a[k], nb: b[k]})
		}
	}
	return out, nil
}

package main

import (
	"bytes"
	"strings"
	"testing"
)

// The testdata timelines share one scope of two components over five
// epochs; b's port chain departs from a's at epoch 3 and stays apart.

func TestFingerprintDivergenceReport(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"testdata/a.jsonl", "testdata/b.jsonl"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (divergent); stderr: %s", code, stderr.String())
	}
	want := `runs diverge: first divergence at epoch 3 (t=3000000ns): port "switch.p0" in scope cell0 (a=0000000000002003 b=000000000000b003)
  to localize the exact event, rerun both sides with: tcnsim ... -fingerprint-fine 3
`
	if stdout.String() != want {
		t.Fatalf("report:\n%s\nwant:\n%s", stdout.String(), want)
	}
}

func TestFingerprintDivergenceJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "testdata/a.jsonl", "testdata/b.jsonl"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr.String())
	}
	for _, field := range []string{
		`"identical": false`,
		`"records_a": 10`,
		`"kind": "epoch"`,
		`"scope": "cell0"`,
		`"component": "port"`,
		`"label": "switch.p0"`,
		`"epoch": 3`,
		`"at_ns": 3000000`,
		`"event": -1`,
		`"digest_a": "0000000000002003"`,
		`"digest_b": "000000000000b003"`,
	} {
		if !strings.Contains(stdout.String(), field) {
			t.Fatalf("JSON report lacks %s:\n%s", field, stdout.String())
		}
	}
}

func TestFingerprintIdentical(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"testdata/b.jsonl", "testdata/b.jsonl"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, stderr.String())
	}
	if want := "fingerprints identical (10 records)\n"; stdout.String() != want {
		t.Fatalf("report %q, want %q", stdout.String(), want)
	}
}

func TestBadInputExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"testdata/a.jsonl"},
		{"testdata/a.jsonl", "testdata/missing.jsonl"},
		{"-series-a", "x.csv", "testdata/a.jsonl", "testdata/b.jsonl"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if stderr.Len() == 0 {
			t.Errorf("%q: nothing on stderr", args)
		}
	}
}

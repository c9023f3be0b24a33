package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestShortRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dur", "5ms"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "marker=TCN scheduler=DWRR") || !strings.Contains(out, "mean delay") {
		t.Fatalf("report lacks its header:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got != 2+1+4 {
		t.Fatalf("report has %d lines, want a config line, a blank, a table header and 4 classes:\n%s", got, out)
	}
}

func TestBadArgsExitNonzero(t *testing.T) {
	for _, args := range [][]string{
		{"-marker", "bogus"},
		{"-sched", "bogus"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("%q: exit 0, want nonzero", args)
		}
		if stderr.Len() == 0 {
			t.Errorf("%q: nothing on stderr", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: wrote a report:\n%s", args, stdout.String())
		}
	}
}

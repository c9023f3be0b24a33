package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// asTcnsim makes the test binary run main() instead of the tests, so a
// test can drive the command end to end, exit status included.
const asTcnsim = "TCNSIM_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asTcnsim) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tcnsim runs the command with args and returns its exit code and stderr.
func tcnsim(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asTcnsim+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("tcnsim %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// TestRingSizesCheckedWhereBuilt pins that a ring size is rejected with
// exit 2 exactly when its sink is built: -explain builds a tracer and a
// ledger, so their sizes must be positive, while a zero size of a ring no
// flag asks for is ignored. The last case exits 2 only because -exp is
// unknown, after the ring sizes passed.
func TestRingSizesCheckedWhereBuilt(t *testing.T) {
	perfetto := filepath.Join(t.TempDir(), "trace.json")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "fig1", "-explain", "-trace-events", "0"}, "-trace-events 0 must be positive"},
		{[]string{"-exp", "fig1", "-explain", "-ledger-events", "-1"}, "-ledger-events -1 must be positive"},
		{[]string{"-exp", "fig1", "-perfetto", perfetto, "-perfetto-events", "0"}, "-perfetto-events 0 must be positive"},
		{[]string{"-exp", "nosuch", "-trace-events", "0", "-ledger-events", "0", "-perfetto-events", "0"}, `unknown experiment "nosuch"`},
	} {
		code, stderr := tcnsim(t, tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.want) || strings.Contains(stderr, "panic:") {
			t.Errorf("tcnsim %v: exit %d, stderr %q; want exit 2 and %q", tc.args, code, stderr, tc.want)
		}
	}
}

package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tcn/internal/testutil"
)

func TestSummarize(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want quartiles
	}{
		{[]float64{5}, quartiles{5, 5, 5}},
		{[]float64{3, 1, 2}, quartiles{1.5, 2, 2.5}},
		{[]float64{4, 1, 3, 2}, quartiles{1.75, 2.5, 3.25}},
		{[]float64{9, 1, 5, 3, 7}, quartiles{3, 5, 7}},
		{[]float64{6, 1, 5, 2, 4, 3}, quartiles{2.25, 3.5, 4.75}},
	} {
		if got := summarize(tc.xs); got != tc.want {
			t.Errorf("summarize(%v) = %+v, want %+v", tc.xs, got, tc.want)
		}
	}
}

// TestSignTest checks the exact two-sided p against binomial(n, 1/2)
// tails worked out by hand.
func TestSignTest(t *testing.T) {
	for _, tc := range []struct {
		wins, losses int
		want         float64
	}{
		{0, 0, 1},
		{3, 0, 0.25},                 // 2 · 1/8
		{10, 0, 2.0 / 1024},          // 2 · 1/1024
		{1, 9, 22.0 / 1024},          // 2 · (1+10)/1024
		{7, 3, 352.0 / 1024},         // 2 · (1+10+45+120)/1024
		{5, 5, 1},                    // 2 · 638/1024, capped
		{9, 0, 2.0 / 512},            // ties dropped: n is 9
		{18, 2, 2 * 211 / 1048576.0}, // 2 · (1+20+190)/2^20
	} {
		if got := signTest(tc.wins, tc.losses); !testutil.AlmostEqual(got, tc.want, 1e-12) {
			t.Errorf("signTest(%d, %d) = %g, want %g", tc.wins, tc.losses, got, tc.want)
		}
	}
}

var (
	runS = metricDef{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25}
	rate = metricDef{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.25}
)

func TestCompareWinsWithTies(t *testing.T) {
	c := compare("w", runS, []float64{1, 2, 3, 4}, []float64{1, 1, 4, 3})
	if c.Wins != 2 || c.Losses != 1 {
		t.Fatalf("lower: wins %d losses %d, want 2 and 1 (one tie)", c.Wins, c.Losses)
	}
	c = compare("w", rate, []float64{1, 2, 3, 4}, []float64{1, 1, 4, 3})
	if c.Wins != 1 || c.Losses != 2 {
		t.Fatalf("higher: wins %d losses %d, want 1 and 2 (one tie)", c.Wins, c.Losses)
	}
	if !testutil.Eq(c.P, 1) {
		t.Fatalf("p %g, want 1 for 1 win against 2 losses", c.P)
	}
}

// scale returns xs times f.
func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	// Ten runs with a narrow spread: IQR 0.045 around a median of 1.045.
	narrow := []float64{1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09}
	// Base runs whose IQR (10) is wider than the bound (0.25 × 15).
	wide := []float64{10, 20, 10, 20, 10, 20, 10, 20, 10, 20}
	for _, tc := range []struct {
		name       string
		d          metricDef
		base, head []float64
		want       string
	}{
		{"gain lower", runS, narrow, scale(narrow, 0.8), "gain"},
		{"gain higher", rate, narrow, scale(narrow, 1.2), "gain"},
		{"gain needs the median past base's IQR", runS, narrow, scale(narrow, 0.99), "no change"},
		{"gain needs 9 of 10 wins", runS, narrow,
			[]float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 2, 2}, "no change"},
		{"regression lower", runS, narrow, scale(narrow, 1.5), "regression"},
		{"regression higher", rate, narrow, scale(narrow, 0.5), "regression"},
		{"worse within the bound", runS, narrow, scale(narrow, 1.2), "no change"},
		{"worse without the loss rate", runS, narrow,
			[]float64{2, 2, 2, 2, 2, 2, 0.5, 0.5, 0.5, 0.5}, "unresolved"},
		{"worse without the loss rate, higher", rate, narrow,
			[]float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 2, 2, 2, 2}, "unresolved"},
		{"wide base IQR", runS, wide, wide, "unresolved"},
		{"wide base IQR, higher", rate, wide, wide, "unresolved"},
		{"every head run beats every base run", runS, wide, scale(narrow, 9), "no change"},
		{"every head run beats every base run, higher", rate, wide, scale(narrow, 21), "no change"},
		{"identical", runS, narrow, narrow, "no change"},
	} {
		if got := compare("w", tc.d, tc.base, tc.head).Verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// resultLine renders a perfbench result line.
func resultLine(correct bool, attempted, failed int, runS, rate float64) string {
	return fmt.Sprintf(`{"attempted":%d,"correct":%t,"failed":%d,"metrics":{"rate":{"unit":"1/s","value":%g},"run_s":{"unit":"s","value":%g}}}`,
		attempted, correct, failed, rate, runS)
}

func TestParseResult(t *testing.T) {
	defs := []metricDef{runS, rate}
	env := `{"env":{"seed":1}}` + "\nrun_s 1.5 s\n"
	vs, share, err := parseResult([]byte(env+resultLine(true, 400, 0, 1.5, 7)+"\n"), defs)
	if err != nil || !reflect.DeepEqual(vs, []float64{1.5, 7}) || !testutil.Eq(share, 0) {
		t.Fatalf("valid result: %v %g %v", vs, share, err)
	}
	for _, tc := range []struct{ name, out, want string }{
		{"correct false", env + resultLine(false, 400, 3, 1.5, 7), "correct: false (3 of 400 flows failed)"},
		{"env line last", env + `{"env":{"seed":1}}`, "last line is not a result"},
		{"text line last", env + resultLine(true, 400, 0, 1.5, 7) + "\nMISMATCH cell 3", "last line is not a result"},
		{"empty", "", "last line is not a result"},
		{"metric missing", `{"correct":true,"attempted":1,"failed":0,"metrics":{"run_s":{"value":1}}}`, "result has no metric rate"},
	} {
		if _, _, err := parseResult([]byte(tc.out), defs); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestLoadBenchmark(t *testing.T) {
	b, err := loadBenchmark(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds < 1 || len(b.Workloads) == 0 || b.Workloads[0].Name != "fig6-testbed" {
		t.Fatalf("repository benchmark: %+v", b)
	}
	if m := b.EndToEnd[0]; m != (metricDef{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25}) {
		t.Fatalf("first end-to-end metric %+v", m)
	}

	good := `"run_seconds":30,"workloads":[{"name":"w"}]`
	for _, tc := range []struct{ name, doc, want string }{
		{"malformed", `{"run_seconds":`, "unexpected end of JSON input"},
		{"no run_seconds", `{"workloads":[{"name":"w"}],"end_to_end":[{"name":"m","better":"lower","bound":0.1}]}`, "run_seconds"},
		{"no metrics", `{` + good + `}`, "end_to_end"},
		{"bad better", `{` + good + `,"end_to_end":[{"name":"m","better":"up","bound":0.1}]}`, `metric "m"`},
		{"zero bound", `{` + good + `,"end_to_end":[{"name":"m","better":"lower"}]}`, `metric "m"`},
	} {
		path := filepath.Join(t.TempDir(), "BENCHMARK.json")
		if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadBenchmark(path); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
	if _, err := loadBenchmark(filepath.Join(t.TempDir(), "missing.json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: %v", err)
	}
}

// call is one invocation of the fake runner.
type call struct {
	root string
	seed int
}

// fakeRunner records its calls and answers each with run_s = seed plus
// 0.5 on the head side, and rate = 10 × seed.
func fakeRunner(calls *[]call, failHead int) runner {
	return func(root, workload string, seed, seconds int) ([]byte, error) {
		*calls = append(*calls, call{root, seed})
		run, failed := float64(seed), 0
		if root == "head" {
			run += 0.5
			failed = failHead
		}
		return []byte(resultLine(true, 100, failed, run, 10*float64(seed)) + "\n"), nil
	}
}

func TestRunPairsOrderAndSeeds(t *testing.T) {
	var calls []call
	vals, err := runPairs(fakeRunner(&calls, 0), [2]string{"base", "head"}, "w", []metricDef{runS, rate}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []call{{"base", 1}, {"head", 1}, {"head", 2}, {"base", 2}, {"base", 3}, {"head", 3}, {"head", 4}, {"base", 4}}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("calls %v, want %v", calls, want)
	}
	wantVals := [2][][]float64{
		{{1, 2, 3, 4}, {10, 20, 30, 40}},
		{{1.5, 2.5, 3.5, 4.5}, {10, 20, 30, 40}},
	}
	if !reflect.DeepEqual(vals, wantVals) {
		t.Fatalf("values %v, want %v", vals, wantVals)
	}
}

func TestRunPairsStops(t *testing.T) {
	defs := []metricDef{runS, rate}
	var calls []call
	_, err := runPairs(fakeRunner(&calls, 1), [2]string{"base", "head"}, "w", defs, 3, 1)
	if err == nil || err.Error() != "head side, pair 1, w: failed share 0.01 is above base's 0" {
		t.Fatalf("larger head failed share: %v", err)
	}

	exit := errors.New("exit status 3")
	failing := func(root, workload string, seed, seconds int) ([]byte, error) {
		if root == "base" && seed == 2 {
			return nil, exit
		}
		return []byte(resultLine(true, 100, 0, 1, 1)), nil
	}
	_, err = runPairs(failing, [2]string{"base", "head"}, "w", defs, 3, 1)
	if !errors.Is(err, exit) || err.Error() != "base side, pair 2, w: exit status 3" {
		t.Fatalf("nonzero exit: %v", err)
	}

	incorrect := func(root, workload string, seed, seconds int) ([]byte, error) {
		return []byte(resultLine(root == "base", 100, 1, 1, 1)), nil
	}
	_, err = runPairs(incorrect, [2]string{"base", "head"}, "w", defs, 3, 1)
	if err == nil || !strings.HasPrefix(err.Error(), "head side, pair 1, w: correct: false") {
		t.Fatalf("incorrect run: %v", err)
	}
}

func TestReportExitsOnRegressionOnly(t *testing.T) {
	narrow := []float64{1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09}
	var out strings.Builder
	if report(&out, "HEAD", 10, 1, []comparison{compare("w", runS, narrow, narrow)}) {
		t.Fatal("no change reported as a regression")
	}
	if !strings.Contains(out.String(), "no change") || !strings.Contains(out.String(), `"regression":false`) {
		t.Fatalf("report:\n%s", out.String())
	}
	out.Reset()
	if !report(&out, "HEAD", 10, 1, []comparison{compare("w", runS, narrow, scale(narrow, 2))}) {
		t.Fatal("regression not reported")
	}
	last := strings.TrimSpace(out.String())
	last = last[strings.LastIndexByte(last, '\n')+1:]
	if !strings.HasPrefix(last, `{"base":"HEAD","comparisons":[{"workload":"w","metric":"run_s"`) ||
		!strings.Contains(last, `"verdict":"regression"`) || !strings.HasSuffix(last, `"regression":true,"seconds":1}`) {
		t.Fatalf("JSON line: %s", last)
	}
}

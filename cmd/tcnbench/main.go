// Command tcnbench compares the repository benchmark (perfbench) on two
// builds: the working tree, uncommitted changes included, and a base git
// ref. Run it from the repository root:
//
//	go run ./cmd/tcnbench -base REF [-workload NAME] [-pairs 10] [-seconds S]
//
// The base side is `git archive REF` in a temporary directory, removed on
// exit, with the working tree's perfbench/ and BENCHMARK.json copied over
// it, so both sides run identical benchmark code. It builds on a copy of
// the working tree's benchmark Go cache (.bench_build/gocache). Pair i runs
// `bash perfbench/run.sh --workload W --seed i --seconds S --trace 0` on
// both sides, base first in odd pairs and head first in even ones. For
// each workload and each end-to-end metric of BENCHMARK.json it prints
// both sides' median and quartiles, the pairs head won (ties count for
// neither side), the exact two-sided sign-test p and a verdict: gain,
// regression, unresolved or no change (see compare). A plain table goes
// to stdout, then one JSON line.
//
// The exit status is 1 on a regression, or when a run exits nonzero,
// prints no result, reports correct: false or, on the head side, fails a
// larger share of its flows than the base run of its pair; 2 on a usage
// or build error; 0 otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// metricDef is one end-to-end metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // allowed worsening, as a fraction of base's median
}

// benchmark is the part of BENCHMARK.json the driver reads.
type benchmark struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

func loadBenchmark(path string) (benchmark, error) {
	var b benchmark
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	if b.RunSeconds < 1 || len(b.Workloads) == 0 || len(b.EndToEnd) == 0 {
		return b, fmt.Errorf("%s: want run_seconds of at least 1, workloads and end_to_end metrics", path)
	}
	for _, m := range b.EndToEnd {
		if (m.Better != "lower" && m.Better != "higher") || !(m.Bound > 0) {
			return b, fmt.Errorf("%s: metric %q: want better lower or higher and a positive bound", path, m.Name)
		}
	}
	return b, nil
}

// parseResult reads the result line perfbench prints last: one value per
// end-to-end metric, in BENCHMARK.json order, and the share of flows
// that failed.
func parseResult(stdout []byte, defs []metricDef) (values []float64, failedShare float64, err error) {
	out := strings.TrimSpace(string(stdout))
	last := out[strings.LastIndexByte(out, '\n')+1:]
	var r struct {
		Correct   *bool `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &r); err != nil || r.Correct == nil {
		return nil, 0, fmt.Errorf("last line is not a result: %q", last)
	}
	if !*r.Correct {
		return nil, 0, fmt.Errorf("correct: false (%d of %d flows failed)", r.Failed, r.Attempted)
	}
	for _, d := range defs {
		v := r.Metrics[d.Name].Value
		if v == nil {
			return nil, 0, fmt.Errorf("result has no metric %s", d.Name)
		}
		values = append(values, *v)
	}
	return values, float64(r.Failed) / float64(max(r.Attempted, 1)), nil
}

// runner runs the benchmark once from a side's root and returns its
// stdout. Tests substitute a fake.
type runner func(root, workload string, seed, seconds int) ([]byte, error)

func runBench(root, workload string, seed, seconds int) ([]byte, error) {
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", workload,
		"--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Dir = root
	// run.sh resolves a relative CARGO_TARGET_DIR against the side's root,
	// so each side builds into its own tree whatever the caller set.
	cmd.Env = append(os.Environ(), "CARGO_TARGET_DIR=.bench_build")
	cmd.Stderr = os.Stderr
	return cmd.Output()
}

var sides = [2]string{"base", "head"}

// runPairs runs n pairs of workload from roots[0], the base, and
// roots[1], the head. values[k][m][i-1] is metric m of side k's run of
// pair i.
func runPairs(run runner, roots [2]string, workload string, defs []metricDef, n, seconds int) (values [2][][]float64, err error) {
	values = [2][][]float64{make([][]float64, len(defs)), make([][]float64, len(defs))}
	for i := 1; i <= n; i++ {
		var failed [2]float64
		for _, k := range [2]int{1 - i%2, i % 2} { // odd pairs run base first
			fmt.Fprintf(os.Stderr, "tcnbench: %s pair %d/%d, %s side\n", workload, i, n, sides[k])
			out, err := run(roots[k], workload, i, seconds)
			var vs []float64
			if err == nil {
				vs, failed[k], err = parseResult(out, defs)
			}
			if err != nil {
				return values, fmt.Errorf("%s side, pair %d, %s: %w", sides[k], i, workload, err)
			}
			for m, v := range vs {
				values[k][m] = append(values[k][m], v)
			}
		}
		if failed[1] > failed[0] {
			return values, fmt.Errorf("%s side, pair %d, %s: failed share %.4g is above base's %.4g",
				sides[1], i, workload, failed[1], failed[0])
		}
	}
	return values, nil
}

// quartiles summarizes one side's runs of a metric.
type quartiles struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// summarize returns the quartiles of xs, interpolating linearly between
// order statistics.
func summarize(xs []float64) quartiles {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		h := p * float64(len(s)-1)
		i := int(h)
		if i+1 == len(s) {
			return s[i]
		}
		return s[i] + (h-float64(i))*(s[i+1]-s[i])
	}
	return quartiles{Q1: at(0.25), Median: at(0.5), Q3: at(0.75)}
}

// beats reports whether a is strictly better than b.
func beats(a, b float64, better string) bool {
	if better == "higher" {
		return a > b
	}
	return a < b
}

// signTest returns the exact two-sided sign-test p of wins against
// losses: twice the binomial(n, 1/2) tail at the smaller count, capped
// at 1.
func signTest(wins, losses int) float64 {
	n, k := wins+losses, min(wins, losses)
	tail, c := 0.0, 1.0 // c = C(n, i)
	for i := 0; i <= k; i++ {
		tail += c
		c = c * float64(n-i) / float64(i+1)
	}
	return math.Min(1, 2*tail/math.Exp2(float64(n)))
}

// comparison is one workload × metric row of the report.
type comparison struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Base     quartiles `json:"base"`
	Head     quartiles `json:"head"`
	Wins     int       `json:"wins"`
	Losses   int       `json:"losses"`
	P        float64   `json:"p"`
	Verdict  string    `json:"verdict"`
}

// compare applies the decision rule to paired runs of one metric, where
// base[i] and head[i] ran the same seed:
//
//	gain        head wins at least 0.9·N pairs and its median is better
//	            by more than base's interquartile range
//	regression  head's median is worse than base's by more than the
//	            bound × base's median, and head loses at least 0.9·N pairs
//	unresolved  worse by more than the bound without that loss rate, or
//	            base's interquartile range wider than the bound, unless
//	            every head run beats every base run
//	no change   anything else
func compare(workload string, d metricDef, base, head []float64) comparison {
	c := comparison{Workload: workload, Metric: d.Name, Unit: d.Unit,
		Base: summarize(base), Head: summarize(head)}
	allBeat := true
	for i, h := range head {
		if beats(h, base[i], d.Better) {
			c.Wins++
		} else if beats(base[i], h, d.Better) {
			c.Losses++
		}
		for _, b := range base {
			allBeat = allBeat && beats(h, b, d.Better)
		}
	}
	c.P = signTest(c.Wins, c.Losses)

	most := 0.9 * float64(len(base))
	iqr := c.Base.Q3 - c.Base.Q1
	bound := d.Bound * math.Abs(c.Base.Median)
	worse := c.Head.Median - c.Base.Median
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case float64(c.Wins) >= most && -worse > iqr:
		c.Verdict = "gain"
	case worse > bound && float64(c.Losses) >= most:
		c.Verdict = "regression"
	case (worse > bound || iqr > bound) && !allBeat:
		c.Verdict = "unresolved"
	default:
		c.Verdict = "no change"
	}
	return c
}

// report prints the table and the JSON line, and whether any row is a
// regression.
func report(w io.Writer, base string, pairs, seconds int, rows []comparison) bool {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\thead median [q1, q3]\thead wins\tsign p\tverdict")
	regression := false
	for _, c := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %s\t%.4g [%.4g, %.4g] %s\t%d/%d\t%.3g\t%s\n",
			c.Workload, c.Metric, c.Base.Median, c.Base.Q1, c.Base.Q3, c.Unit,
			c.Head.Median, c.Head.Q1, c.Head.Q3, c.Unit, c.Wins, pairs, c.P, c.Verdict)
		regression = regression || c.Verdict == "regression"
	}
	tw.Flush()
	line, _ := json.Marshal(map[string]any{ // plain values only; Marshal cannot fail
		"base": base, "pairs": pairs, "seconds": seconds,
		"comparisons": rows, "regression": regression,
	})
	fmt.Fprintln(w, string(line))
	return regression
}

// prepare writes ref $1's tree into $2, copies the working tree's
// benchmark over it and builds the benchmark on both sides through
// perfbench/run.sh, so the builds share its environment: the head side
// first, then the base side on a copy of the head side's Go cache
// (.bench_build/gocache), so the base build skips the standard library
// and every package the two trees share. run.sh runs the benchmark after
// building it, and the benchmark exits 2 on -h; a failed build leaves no
// binary behind.
const prepare = `set -euo pipefail
git archive --format=tar "$1" | tar -x -C "$2"
rm -rf "$2/perfbench"
cp -R perfbench BENCHMARK.json "$2"
build() {
	mkdir -p "$1/.bench_build"
	rm -f "$1/.bench_build/perfbench"
	(cd "$1" && CARGO_TARGET_DIR=.bench_build bash perfbench/run.sh -h 2>.bench_build/build.log) || true
	[[ -x "$1/.bench_build/perfbench" ]] || { cat "$1/.bench_build/build.log" >&2; exit 1; }
}
build .
mkdir -p "$2/.bench_build"
cp -R .bench_build/gocache "$2/.bench_build/"
build "$2"`

func main() {
	os.Exit(compareBuilds())
}

func compareBuilds() int {
	base := flag.String("base", "", "git ref to compare the working tree against (required)")
	only := flag.String("workload", "", "run only this workload of BENCHMARK.json (default: every workload)")
	pairs := flag.Int("pairs", 10, "pairs of runs per workload")
	seconds := flag.Int("seconds", 0, "--seconds of each run (default: BENCHMARK.json's run_seconds)")
	flag.Parse()
	fail := func(code int, err error) int {
		fmt.Fprintln(os.Stderr, "tcnbench:", err)
		return code
	}
	if *base == "" || *pairs < 1 || *seconds < 0 || flag.NArg() > 0 {
		flag.Usage()
		return 2
	}
	bench, err := loadBenchmark("BENCHMARK.json")
	if err != nil {
		return fail(2, fmt.Errorf("run from the repository root: %w", err))
	}
	if *seconds == 0 {
		*seconds = bench.RunSeconds
	}
	var workloads []string
	for _, w := range bench.Workloads {
		if *only == "" || *only == w.Name {
			workloads = append(workloads, w.Name)
		}
	}
	if len(workloads) == 0 {
		return fail(2, fmt.Errorf("no workload %q in BENCHMARK.json", *only))
	}
	dir, err := os.MkdirTemp("", "tcnbench-base-")
	if err != nil {
		return fail(2, err)
	}
	defer os.RemoveAll(dir)
	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt)
	go func() { // deferred calls do not run on Ctrl-C
		<-interrupted
		os.RemoveAll(dir)
		os.Exit(130)
	}()

	cmd := exec.Command("bash", "-c", prepare, "prepare", *base, dir)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fail(2, fmt.Errorf("preparing base %s and head: %w", *base, err))
	}

	var rows []comparison
	for _, w := range workloads {
		values, err := runPairs(runBench, [2]string{dir, "."}, w, bench.EndToEnd, *pairs, *seconds)
		if err != nil {
			return fail(1, err)
		}
		for m, d := range bench.EndToEnd {
			rows = append(rows, compare(w, d, values[0][m], values[1][m]))
		}
	}
	if report(os.Stdout, *base, *pairs, *seconds, rows) {
		return 1
	}
	return 0
}

// Command perfbench is the repository benchmark. It times three workloads
// of the TCN simulator through the public experiment runners — the Fig 6
// testbed sweep cell pair, a Fig 10 leaf-spine cell and the Fig 6 TCN
// cell with every observer attached — checks every run's simulated
// results against stored references, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload fig6-testbed --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// ones: engine and pool counts, the layer ladder, per-sink prices, the
// traced run's self time per layer and the cost-model closure. See
// README.md for the workloads and the metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// simWorkers is how many simulation goroutines the benchmark runs at
// once: one, so a run's time is the simulator's, not the OS scheduler's.
const simWorkers = 1

//go:embed reference.json
var referenceJSON []byte

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload to run: fig6-testbed, fig10-leafspine or fig6-observed")
		seed     = fs.Int64("seed", 1, "seed that selects the run's inputs from the reference pool")
		seconds  = fs.Int("seconds", 20, "seconds of timed runs (trace 0) or of sink pricing (trace 1)")
		traceArg = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
		writeRef = fs.String("write-reference", "", "regenerate the input pool and reference results into this file, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := checkConcurrency(simWorkers, runtime.NumCPU()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *writeRef != "" {
		if err := writeReference(*writeRef); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*traceArg != 0 && *traceArg != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	refs, err := parseReferences(referenceJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &bench{refs: refs}
	idx := pickInputs(*seed, w.inputs)
	ins, err := refs.inputs(w.family, idx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printJSON(map[string]any{"env": environment(*seed, w.name, idx)})

	var got map[string]float64
	defs := endToEnd
	if *traceArg == 0 {
		got = b.timed(w, ins, float64(*seconds))
	} else {
		defs = perLayer
		fig6, err := refs.inputs(famFig6, pickInputs(*seed, 1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if got, err = b.traced(w, ins[0], fig6[0], float64(*seconds)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	vals, err := report(defs, got)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, d := range defs {
		fmt.Printf("%-32s %14.6g %s\n", d.name, vals[d.name].Value, d.unit)
	}
	for _, n := range b.notes {
		fmt.Println("MISMATCH", n)
	}
	fmt.Printf("failed_frac %.6g (%d of %d flows)\n", float64(b.failed)/float64(max(b.attempted, 1)), b.failed, b.attempted)
	printJSON(map[string]any{
		"correct":   b.failed == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   vals,
	})
	return 0
}

func printJSON(v any) {
	out, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps, strings and numbers are printed
	}
	fmt.Println(string(out))
}

// checkConcurrency refuses to run more simulation goroutines than there
// are cores: the surplus would time the OS scheduler.
func checkConcurrency(workers, cores int) error {
	if workers < 1 {
		return errors.New("need at least one simulation goroutine")
	}
	if workers > cores {
		return fmt.Errorf("%d simulation goroutines on %d cores", workers, cores)
	}
	return nil
}

// environment records what the numbers were measured on.
func environment(seed int64, workload string, inputs []int) map[string]any {
	return map[string]any{
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"seed":       seed,
		"commit":     commit(),
		"workload":   workload,
		"inputs":     inputs,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the go tool stamped into the binary; a
// checkout without git history has none.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// Command tcndiff compares two simulator runs and localizes their first
// divergence.
//
// Usage:
//
//	tcnsim -exp fig6 -seed 7 -fingerprint a.jsonl
//	tcnsim -exp fig6 -seed 7 -fingerprint b.jsonl
//	tcndiff a.jsonl b.jsonl
//
// The inputs are fingerprint timelines written by `tcnsim -fingerprint`:
// per-component chained digests snapshotted at sim-time epochs. tcndiff
// binary-searches each digest chain for the first mismatching epoch and
// reports the earliest (epoch, component) divergence; when the timelines
// carry per-event fine records (a `-fingerprint-fine` rerun bracketed
// around that epoch), it also binary-searches those and reports the first
// divergent event index.
//
// Optionally it also diffs flight-recorder time series CSVs
// (-series-a/-series-b), decision-ledger JSONL reason tables
// (-ledger-a/-ledger-b), and folded cost profiles written by
// `tcnsim -profile-folded` (-profile-a/-profile-b), reporting the top
// per-stack cost regressions largest-|Δ| first.
//
// Exit status: 0 when every requested comparison matches, 1 when any
// diverges, 2 on usage or input errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"tcn/internal/digest"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the report to stdout
// and errors to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tcndiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut = fs.Bool("json", false, "emit the report as JSON instead of text")
		seriesA = fs.String("series-a", "", "flight-recorder timeseries CSV of run A (from tcnsim -timeseries)")
		seriesB = fs.String("series-b", "", "flight-recorder timeseries CSV of run B")
		ledgerA = fs.String("ledger-a", "", "decision-ledger JSONL of run A (from tcnsim -ledger)")
		ledgerB = fs.String("ledger-b", "", "decision-ledger JSONL of run B")
		profA   = fs.String("profile-a", "", "folded cost profile of run A (from tcnsim -profile-folded)")
		profB   = fs.String("profile-b", "", "folded cost profile of run B")
		profTop = fs.Int("profile-top", 20, "cost-regression stacks printed by the text report (all differing stacks count toward the exit status)")
	)
	fs.Usage = func() { usage(stderr) }
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if (*seriesA == "") != (*seriesB == "") || (*ledgerA == "") != (*ledgerB == "") || (*profA == "") != (*profB == "") {
		fmt.Fprintln(stderr, "tcndiff: -series-a/-series-b, -ledger-a/-ledger-b, and -profile-a/-profile-b must be given in pairs")
		return 2
	}
	haveFP := fs.NArg() == 2
	if !haveFP && fs.NArg() != 0 {
		usage(stderr)
		return 2
	}
	if !haveFP && *seriesA == "" && *ledgerA == "" && *profA == "" {
		usage(stderr)
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintf(stderr, "tcndiff: %v\n", err)
		return 2
	}

	out := report{Identical: true}

	if haveFP {
		a, err := readTimeline(fs.Arg(0))
		if err != nil {
			return fatal(err)
		}
		b, err := readTimeline(fs.Arg(1))
		if err != nil {
			return fatal(err)
		}
		rep := digest.Compare(a, b)
		out.RecordsA, out.RecordsB = rep.RecordsA, rep.RecordsB
		out.FineA, out.FineB = len(a.Fine), len(b.Fine)
		if !rep.Identical {
			out.Identical = false
			out.Divergence = rep.Divergence
		}
	}
	if *seriesA != "" {
		deltas, err := diffSeries(*seriesA, *seriesB)
		if err != nil {
			return fatal(err)
		}
		out.Series = deltas
		for _, d := range deltas {
			if !d.clean() {
				out.Identical = false
			}
		}
	}
	if *ledgerA != "" {
		deltas, err := diffLedgers(*ledgerA, *ledgerB)
		if err != nil {
			return fatal(err)
		}
		out.Ledger = deltas
		if len(deltas) > 0 {
			out.Identical = false
		}
	}
	if *profA != "" {
		stacks, deltas, err := diffProfiles(*profA, *profB)
		if err != nil {
			return fatal(err)
		}
		out.haveProfile = true
		out.ProfileStacks = stacks
		out.Profile = deltas
		out.ProfileTop = *profTop
		if len(deltas) > 0 {
			out.Identical = false
		}
	}

	if *jsonOut {
		if err := out.writeJSON(stdout); err != nil {
			return fatal(err)
		}
	} else {
		out.writeText(stdout, haveFP)
	}
	if !out.Identical {
		return 1
	}
	return 0
}

func readTimeline(path string) (*digest.Timeline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tl, err := digest.ReadTimeline(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tl, nil
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `tcndiff — localize the first divergence between two simulator runs

  tcndiff [flags] a.jsonl b.jsonl

The positional arguments are fingerprint timelines from
`+"`tcnsim -fingerprint FILE`"+`. The first mismatching (epoch, component)
is found by binary search over the chained digests; rerun both sides with
`+"`-fingerprint-fine EPOCH`"+` at the reported epoch to narrow the divergence
to an exact event index.

Flags:
  -json        machine-readable report on stdout
  -series-a/-series-b FILE   diff flight-recorder timeseries CSVs
                             (per-series max-delta summary)
  -ledger-a/-ledger-b FILE   diff decision-ledger reason tables
  -profile-a/-profile-b FILE diff folded cost profiles (from tcnsim
                             -profile-folded): top cost regressions per
                             component stack, largest |Δ| first
  -profile-top N             stacks shown by the text report (default 20)

Exit: 0 identical, 1 divergent, 2 bad input.`)
}

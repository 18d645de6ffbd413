// Command ccbench runs the reproduction experiments (E1 onwards; the
// list and the -experiment usage string are enumerated from the
// internal/bench experiment registry at run time, so they are never
// stale) and prints their tables. The output of `ccbench -scale full`
// is the source of EXPERIMENTS.md. E11 compares every execution
// backend on wall clock — its backend columns are enumerated from the
// pramcc backend registry the same way — E12 pits the incremental
// streaming backend against recompute-per-batch, E13 the three graph
// loaders (sequential text, parallel text, binary) on load
// throughput, E14 the columnar span replay against the boxed [][2]int
// replay on ingest throughput;
//
//	ccbench -experiment E11,E12,E13,E14,E15 -format json > BENCH_$(date +%Y%m%d).json
//
// snapshots them as the machine-readable artifact tracked across
// commits. E13 defaults to generated workloads; -graph FILE points it
// at a real graph file instead, in either format (auto-detected, like
// every graph input in this repo).
//
// Usage:
//
//	ccbench [-experiment all|E1,E2,...] [-scale quick|full] [-format text|markdown|csv|json] [-graph FILE]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	// The id range in the usage string is derived from the experiment
	// registry, so it can never go stale when an experiment is added.
	ids := bench.IDs()
	expFlag := flag.String("experiment", "all",
		fmt.Sprintf("comma-separated experiment ids (%s..%s) or 'all'", ids[0], ids[len(ids)-1]))
	scaleFlag := flag.String("scale", "quick", "quick (seconds) or full (minutes, EXPERIMENTS.md scale)")
	formatFlag := flag.String("format", "text", "output format: text, markdown, csv, or json")
	graphFlag := flag.String("graph", "", "graph file for E13 (text or binary, auto-detected) instead of generated workloads")
	flag.Parse()

	format, err := bench.ParseFormat(*formatFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccbench:", err)
		os.Exit(2)
	}

	scale := bench.Quick
	switch *scaleFlag {
	case "quick":
	case "full":
		scale = bench.Full
	default:
		fmt.Fprintf(os.Stderr, "ccbench: unknown scale %q (want quick or full)\n", *scaleFlag)
		os.Exit(2)
	}

	want := map[string]bool{}
	runAll := *expFlag == "all"
	if !runAll {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	ran := 0
	for _, e := range bench.All() {
		if !runAll && !want[e.ID] {
			continue
		}
		start := time.Now()
		var table *bench.Table
		if e.ID == "E13" && *graphFlag != "" {
			var err error
			table, err = bench.E13File(*graphFlag)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ccbench:", err)
				os.Exit(1)
			}
		} else {
			table = e.Run(scale)
		}
		if err := table.RenderTo(os.Stdout, format); err != nil {
			fmt.Fprintln(os.Stderr, "ccbench:", err)
			os.Exit(1)
		}
		if format == bench.FormatText {
			fmt.Printf("  (%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "ccbench: no experiment matched %q\n", *expFlag)
		os.Exit(2)
	}
}

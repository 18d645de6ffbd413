// Command cclint runs the repo's custom static-analysis suite
// (internal/analysis) over the given package patterns and exits
// non-zero when any unsuppressed diagnostic remains. It is the CI
// gate for the invariants the test suite can only probe dynamically:
// atomic snapshot publication (atomicpub), allocation-free hot paths
// (zeroalloc), cancellable engine rounds (ctxround), WAL-before-
// publish ordering (waldiscipline), and documented metric names
// (metricdoc).
//
// Usage:
//
//	go run ./cmd/cclint ./...
//	go run ./cmd/cclint -run metricdoc ./...
//	go run ./cmd/cclint -vet=false ./internal/incremental
//
// -run selects a comma-separated subset of analyzers. -vet (default
// true when running the full suite) additionally shells out to
// `go vet -atomic -copylocks` for the overlapping upstream checks.
// See CONTRIBUTING.md for the //pramcc:zeroalloc and //pramcc:allow
// directives.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"repro/internal/analysis"
)

func main() {
	var (
		runSel  = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
		vetPass = flag.Bool("vet", true, "also run `go vet -atomic -copylocks` (full-suite runs only)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: cclint [-run analyzers] [-vet=bool] [packages]\n\nanalyzers:\n")
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	var selected []*analysis.Analyzer
	if *runSel != "" {
		var err error
		selected, err = analysis.Validate(strings.Split(*runSel, ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, "cclint:", err)
			os.Exit(2)
		}
	}

	res, err := analysis.RunSuite(".", patterns, selected)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cclint:", err)
		os.Exit(2)
	}
	for _, d := range res.Diags {
		fmt.Println(d.String())
	}

	failed := len(res.Diags) > 0

	// The upstream vet passes closest to this suite's concerns ride
	// along on full-suite runs so CI needs only one lint entry point.
	if *vetPass && *runSel == "" {
		args := append([]string{"vet", "-atomic", "-copylocks"}, patterns...)
		cmd := exec.Command("go", args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			failed = true
		}
	}

	if failed {
		fmt.Fprintf(os.Stderr, "cclint: %d diagnostic(s)\n", len(res.Diags))
		os.Exit(1)
	}
	fmt.Printf("cclint: ok (%d packages, %d suppressed by //pramcc:allow)\n", res.Packages, res.Suppressed)
}

// Command perfbench is pramcc's end-to-end and per-layer benchmark. It
// generates one workload from a seed, drives the library through its
// public API in-process for a fixed time, checks every output against
// an oracle, and prints the metrics as one JSON line. See README.md in
// this directory for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workDir  string // scratch space for data directories and span files
}

func (c config) duration() time.Duration { return time.Duration(c.seconds) * time.Second }

// workers is the engine worker count: GOMAXPROCS, capped at the CPU
// count.
func workers() int { return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) }

// report collects one run's outcome.
type report struct {
	attempted, failed int64
	errs              []string // oracle mismatches and other wrong answers
	values            map[string]float64
	details           []string // human-readable lines printed before the result
	spans             *tracer
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// wrong records a wrong answer: it fails the run and counts as a
// failed operation.
func (r *report) wrong(format string, args ...any) {
	r.failed++
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *report) detail(format string, args ...any) {
	r.details = append(r.details, fmt.Sprintf(format, args...))
}

// latency records a timing summary line: lower quartile, median and
// tail with their sample count.
func (r *report) latency(name, unit string, xs []float64) {
	if len(xs) == 0 {
		r.detail("%-34s no samples", name)
		return
	}
	line := fmt.Sprintf("%-34s p25 %.4g, p50 %.4g %s", name, quantile(sorted(xs), 2500), median(xs), unit)
	if v, p, ok := tail(xs); ok {
		line += fmt.Sprintf(", p%s %.4g %s", strconv.FormatFloat(float64(p)/100, 'f', -1, 64), v, unit)
	}
	r.detail("%s (n=%d)", line, len(xs))
}

// workloads maps each workload name to its run; BENCHMARK.json and
// README.md say why each was chosen.
var workloads = map[string]func(cfg config, r *report) error{
	"solve":    runSolve,
	"stream":   runStream,
	"simulate": runSimulate,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := checkCheckout(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	r := newReport()
	if cfg.trace {
		r.spans = newTracer()
	}
	start := time.Now()
	if err := workloads[cfg.workload](cfg, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if !cfg.trace {
		for _, d := range endToEnd {
			if r.values[d.name] <= 0 {
				fmt.Fprintf(stderr, "perfbench: %s: %s was not measured; is -seconds too short?\n", cfg.workload, d.name)
				return 1
			}
		}
	}
	if r.attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s: no operation fit in %d s\n", cfg.workload, cfg.seconds)
		return 1
	}
	if r.spans != nil {
		path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := r.spans.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		r.detail("spans written to %s", path)
	}
	r.detail("run took %.1f s", time.Since(start).Seconds())
	if err := printResult(stdout, cfg, r); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func parseArgs(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: solve, stream or simulate")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&cfg.seconds, "seconds", 25, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.StringVar(&cfg.workDir, "work", filepath.Join(".bench_build", "perfbench"), "directory for data files and span output")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return cfg, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(names, ", "))
	}
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("-seconds must be at least 1, got %d", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	return cfg, nil
}

// checkCheckout refuses to run outside a checkout of the repository:
// the benchmark measures the program built from the sources beside it.
func checkCheckout() error {
	for _, f := range []string{"go.mod", filepath.Join("perfbench", "go.mod")} {
		if _, err := os.Stat(f); err != nil {
			return errors.New("run from the root of a repository checkout (go.mod and perfbench/go.mod must exist)")
		}
	}
	return nil
}

// printResult prints the detail lines and then, as the last line, the
// JSON result holding the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run).
func printResult(w io.Writer, cfg config, r *report) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(r.errs) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	fmt.Fprintf(w, "workload %s, seed %d, %d s, trace %v, GOMAXPROCS %d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0))
	for _, d := range r.details {
		fmt.Fprintln(w, " ", d)
	}
	for _, e := range r.errs {
		fmt.Fprintln(w, "  WRONG:", e)
	}
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.name] = value{v, d.unit}
		if cfg.trace {
			fmt.Fprintf(w, "  %-34s %14.6g %-6s -> %s (%s)\n", d.name, v, d.unit, d.moves, d.on)
		} else {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

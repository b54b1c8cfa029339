// Command perfbench is the repository's campaign benchmark. It runs one
// of three fixed fault-injection campaign workloads (or all of them),
// checks the campaign output, and prints every metric with its unit,
// ending with one JSON result line.
//
// Usage:
//
//	perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics on one campaign worker per
// CPU; --trace 1 runs the traced serial pass and times each layer from
// outside. See README.md for the metrics and what moves them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: unixbench-failstop | bigmem-failstop | 3vm-ladder-mix | all")
	seed := fs.Uint64("seed", 1, "workload seed: batch runs use campaign seeds seed*1e6+1 onwards")
	seconds := fs.Int("seconds", 10, "how long the repeated measurement loop runs")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced, one worker per CPU; 1: per-layer metrics from the traced serial pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) || *seed >= 1<<40 {
		fmt.Fprintln(stderr, "perfbench: need --workload, --seconds >= 1, --trace 0|1 and --seed < 2^40")
		return 2
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else {
		w, err := lookupWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		selected = []workload{w}
	}

	fmt.Fprintln(stdout, environment())
	code := 0
	for _, w := range selected {
		o := options{seed: *seed, budget: time.Duration(*seconds) * time.Second, runs: w.runs, minBatches: 3}
		fmt.Fprintf(stdout, "workload %s: %s (seed %d, %d runs per batch)\n", w.name, w.why, *seed, o.runs)
		var r *report
		if *trace == 1 {
			r = measureLayers(w, o)
		} else {
			r = measureEndToEnd(w, o)
		}
		if err := r.write(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if !r.correct() {
			code = 1
		}
	}
	return code
}

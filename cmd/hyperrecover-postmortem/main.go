// Command hyperrecover-postmortem runs a fault-injection campaign and
// performs automatic failure forensics on every run whose recovery story
// went wrong — failed, escalated, or degraded to keep the host alive. For
// each such run it assembles a post-mortem bundle (the causal recovery
// journal, the corrupted structural cells, the per-attempt outage windows,
// the flight-recorder tail, the SLO damage) and classifies a root cause;
// the report is the per-fault-class root-cause matrix, the host-health
// trajectory, and the N lowest-seed bundles in full.
//
// Examples:
//
//	hyperrecover-postmortem -fault ioapic -runs 200
//	hyperrecover-postmortem -fault privvm-crash -ladder hybrid -runs 50 -bundles 2
//	hyperrecover-postmortem -fault failstop -runs 500 -format json > postmortem.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"nilihype/internal/campaign"
	"nilihype/internal/core"
	"nilihype/internal/health"
	"nilihype/internal/inject"
	"nilihype/internal/report"
	"nilihype/internal/traffic"
)

func main() {
	var o options
	flag.StringVar(&o.Fault, "fault", "failstop",
		"fault type: failstop | register | code | privvm-crash | privvm-hang | ioapic")
	flag.StringVar(&o.Ladder, "ladder", "microreset",
		"recovery ladder: microreset | microreboot | hybrid | full")
	flag.IntVar(&o.Runs, "runs", 100, "campaign size")
	flag.Uint64Var(&o.SeedBase, "seed-base", 0, "first seed is seed-base+1")
	flag.IntVar(&o.Parallel, "parallel", 0, "worker parallelism (0 = GOMAXPROCS)")
	flag.IntVar(&o.Bundles, "bundles", 3, "post-mortem bundles to print in full (lowest seeds first)")
	flag.Uint64Var(&o.Users, "users", 0, "simulated end-user population per run (0 = traffic off)")
	flag.StringVar(&o.Format, "format", "text", "output format: text | json")
	flag.Parse()

	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hyperrecover-postmortem:", err)
		os.Exit(1)
	}
}

type options struct {
	Fault    string
	Ladder   string
	Runs     int
	SeedBase uint64
	Parallel int
	Bundles  int
	Users    uint64
	Format   string
}

func parseLadder(s string) (core.Config, error) {
	switch strings.ToLower(s) {
	case "microreset", "nilihype":
		return core.Config{Mechanism: core.Microreset, Enhancements: core.AllEnhancements}, nil
	case "microreboot", "rehype":
		return core.Config{Mechanism: core.Microreboot, Enhancements: core.AllEnhancements}, nil
	case "hybrid":
		return core.HybridConfig(), nil
	case "full", "full-ladder":
		return core.FullLadderConfig(), nil
	default:
		return core.Config{}, fmt.Errorf("unknown ladder %q", s)
	}
}

// jsonReport is the machine-readable document -format json emits.
type jsonReport struct {
	Runs       int                                  `json:"runs"`
	RootCauses map[string]int                       `json:"root_causes,omitempty"`
	ByClass    map[string]*campaign.FaultClassStats `json:"fault_classes,omitempty"`
	Health     health.Report                        `json:"health"`
	Bundles    []campaign.Bundle                    `json:"bundles,omitempty"`
}

func run(o options, w io.Writer) error {
	ft, err := inject.ParseFaultType(o.Fault)
	if err != nil {
		return err
	}
	ladder, err := parseLadder(o.Ladder)
	if err != nil {
		return err
	}
	format, err := report.ParseFormat(o.Format)
	if err != nil {
		return err
	}
	if format != report.Text && format != report.JSON {
		return fmt.Errorf("format %v not supported (want text or json)", format)
	}

	// Collect every wrong run's bundle during execution (OnResult runs
	// under the campaign's mutex); trim to the N lowest seeds afterwards
	// so the selection is deterministic whatever the completion order.
	var bundles []campaign.Bundle
	c := campaign.Campaign{
		Base: campaign.RunConfig{
			Setup: campaign.ThreeAppVM, Fault: ft, Logging: true,
			Recovery:      ladder,
			BenchDuration: 2 * time.Second,
			Traffic:       traffic.Config{Users: o.Users},
		},
		Runs:        o.Runs,
		SeedBase:    o.SeedBase,
		Parallelism: o.Parallel,
		OnResult: func(r campaign.Result) {
			if b, ok := campaign.AssembleBundle(r); ok {
				bundles = append(bundles, b)
			}
		},
	}
	sum := c.Execute()
	sort.Slice(bundles, func(i, j int) bool { return bundles[i].Seed < bundles[j].Seed })
	if o.Bundles >= 0 && len(bundles) > o.Bundles {
		bundles = bundles[:o.Bundles]
	}
	hrep := sum.HealthReport(health.Config{})

	if format == report.JSON {
		doc := jsonReport{
			Runs:       sum.Runs,
			RootCauses: sum.RootCauses,
			ByClass:    sum.FaultClasses,
			Health:     hrep,
			Bundles:    bundles,
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}

	fmt.Fprint(w, sum.Format())
	fmt.Fprintln(w)
	fmt.Fprint(w, sum.FormatRootCauseMatrix())
	fmt.Fprintln(w)
	fmt.Fprint(w, hrep.Format())
	for i := range bundles {
		fmt.Fprintf(w, "\n== post-mortem %d/%d ==\n", i+1, len(bundles))
		fmt.Fprint(w, bundles[i].Format())
	}
	return nil
}

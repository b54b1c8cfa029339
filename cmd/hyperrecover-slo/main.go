// Command hyperrecover-slo scores recovery mechanisms by user-visible
// damage instead of recovery latency: an open-loop population of users
// (default one million) issues requests against the simulated system
// while faults are injected and recovered, and each mechanism is charged
// the user-seconds of degradation, timed-out requests, and degraded
// 1-second intervals its detect→pause→repair→resume window caused.
//
// Examples:
//
//	hyperrecover-slo                               # 1M users, 100 runs/mechanism
//	hyperrecover-slo -users 250000 -runs 300
//	hyperrecover-slo -fault register -timeout 300ms
//	hyperrecover-slo -mechanisms nilihype,rehype
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nilihype/internal/campaign"
	"nilihype/internal/core"
	"nilihype/internal/guest"
	"nilihype/internal/inject"
	"nilihype/internal/traffic"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hyperrecover-slo:", err)
		os.Exit(1)
	}
}

// mechanismSpec is one column of the comparison: a named recovery Config.
type mechanismSpec struct {
	name string
	cfg  core.Config
}

func run() error {
	var (
		users    = flag.Uint64("users", 1_000_000, "open-loop user population per run")
		runs     = flag.Int("runs", 100, "injection runs per mechanism")
		duration = flag.Duration("duration", 3*time.Second, "benchmark duration (virtual time)")
		faultStr = flag.String("fault", "failstop", "fault type: failstop | register | code | privvm-crash | privvm-hang | ioapic")
		setupStr = flag.String("setup", "3appvm", "target system: 1appvm | 3appvm")
		timeout  = flag.Duration("timeout", 500*time.Millisecond, "per-request deadline (0 = traffic default)")
		period   = flag.Duration("period", time.Second, "per-user request period (0 = traffic default)")
		parallel = flag.Int("parallel", 0, "concurrent runs per process (0 = GOMAXPROCS)")
		mechList = flag.String("mechanisms", "nilihype,rehype,full-ladder",
			"comma-separated mechanisms to compare: nilihype | rehype | checkpoint | privvm-restart | hybrid | full-ladder")
	)
	flag.Parse()

	fault, err := inject.ParseFaultType(*faultStr)
	if err != nil {
		return err
	}
	setup, err := parseSetup(*setupStr)
	if err != nil {
		return err
	}
	mechs, err := parseMechanisms(*mechList)
	if err != nil {
		return err
	}

	fmt.Printf("== user-visible SLO under recovery: fault=%s users=%d runs=%d/mechanism duration=%v deadline=%v ==\n",
		*faultStr, *users, *runs, *duration, *timeout)
	fmt.Printf("%-14s %-9s %-13s %-12s %-13s %-11s %-10s %-10s %s\n",
		"mechanism", "success", "mean-recovery", "outage/run", "user-sec/run",
		"timed-out", "p99-lat", "degr-ivl", "worst-goodput")

	for _, m := range mechs {
		c := campaign.Campaign{
			Base: campaign.RunConfig{
				Setup:         setup,
				Fault:         fault,
				Workload:      guest.UnixBench,
				Logging:       true,
				Recovery:      m.cfg,
				BenchDuration: *duration,
				Traffic: traffic.Config{
					Users:   *users,
					Timeout: *timeout,
					Period:  *period,
				},
			},
			Runs:        *runs,
			Parallelism: *parallel,
		}
		s := c.Execute()
		printRow(m.name, s)
	}
	fmt.Println()
	fmt.Println("outage/run and user-sec/run are means over scored runs; user-sec is outage × users.")
	fmt.Println("degr-ivl counts 1s intervals that lost >10% of offered requests; worst-goodput is the worst interval's completed/offered.")
	return nil
}

// printRow renders one mechanism's aggregate SLO as a comparison row.
func printRow(name string, s campaign.Summary) {
	if s.SLORuns == 0 {
		fmt.Printf("%-14s no scored runs (%d detected, %d recovered)\n",
			name, s.DetectedCount, s.RecoverySuccess)
		return
	}
	n := uint64(s.SLORuns)
	slo := s.SLO
	outagePerRun := time.Duration(slo.OutageUs/n) * time.Microsecond
	fmt.Printf("%-14s %-9s %-13v %-12v %-13.1f %-11s %-10v %-10s %d‰\n",
		name,
		fmt.Sprintf("%d/%d", s.RecoverySuccess, s.DetectedCount),
		s.MeanSuccessLatency().Round(10*time.Microsecond),
		outagePerRun.Round(10*time.Microsecond),
		slo.DegradedUserSeconds()/float64(n),
		fmt.Sprintf("%d/%d", slo.Lost(), slo.Offered),
		time.Duration(slo.Latency.Quantile(0.99))*time.Microsecond,
		fmt.Sprintf("%d/%d", slo.DegradedIntervals, slo.Intervals),
		slo.WorstIntervalPermille,
	)
}

// parseMechanisms resolves the comma-separated mechanism list into named
// recovery Configs (single rungs get AllEnhancements, matching the
// campaign command's defaults).
func parseMechanisms(list string) ([]mechanismSpec, error) {
	var out []mechanismSpec
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		var cfg core.Config
		switch strings.ToLower(name) {
		case "hybrid":
			cfg = core.HybridConfig()
		case "full-ladder":
			cfg = core.FullLadderConfig()
		default:
			m, err := core.ParseMechanism(name)
			if err != nil {
				return nil, err
			}
			cfg = core.Config{Mechanism: m, Enhancements: core.AllEnhancements}
		}
		out = append(out, mechanismSpec{name: strings.ToLower(name), cfg: cfg})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty mechanism list")
	}
	return out, nil
}

func parseSetup(s string) (campaign.Setup, error) {
	switch strings.ToLower(s) {
	case "1appvm":
		return campaign.OneAppVM, nil
	case "3appvm":
		return campaign.ThreeAppVM, nil
	default:
		return 0, fmt.Errorf("unknown setup %q", s)
	}
}

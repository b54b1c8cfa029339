// Command hyperrecover-trace renders one fault-injection run's always-on
// telemetry: the flight-recorder timeline as a Chrome trace_event JSON
// document (open chrome://tracing — or https://ui.perfetto.dev — and load
// the file; per-CPU lanes carry hypervisor activity, the "recovery" lane
// carries the repair-phase spans and resume markers, and the "journal"
// lane carries the recovery story from fault and detect through attempt,
// audit and escalate to the disposition), or as a plain-text timeline
// followed by the journal and the end-of-run metrics registry.
//
// Examples:
//
//	hyperrecover-trace -seed 3 -fault code -adversarial > trace.json
//	hyperrecover-trace -adversarial -find-failed 50 -format text
//	hyperrecover-trace -seed 7 -mechanism rehype -fault register > trace.json
//	hyperrecover-trace -seed 3 -fault ioapic -format text
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"nilihype/internal/campaign"
	"nilihype/internal/core"
	"nilihype/internal/inject"
	"nilihype/internal/journal"
)

// The names the -fault and -mechanism flags advertise; every one must
// resolve (TestParseMechanismAndFault).
const (
	faultNames     = "failstop | register | code | privvm-crash | privvm-hang | ioapic"
	mechanismNames = "nilihype | rehype | checkpoint | privvm-restart"
)

func main() {
	var o options
	flag.Uint64Var(&o.Seed, "seed", 1, "injection run seed")
	flag.StringVar(&o.Fault, "fault", "code", "fault type: "+faultNames)
	flag.StringVar(&o.Mechanism, "mechanism", "nilihype", "recovery mechanism: "+mechanismNames)
	flag.BoolVar(&o.Adversarial, "adversarial", false,
		"adversarial run: hybrid escalation ladder, audit gate, burst fault, fault-during-recovery")
	flag.StringVar(&o.Format, "format", "chrome", "output format: chrome | text")
	flag.IntVar(&o.FlightCap, "flight", 4096, "flight recorder capacity (events retained)")
	flag.IntVar(&o.RepairCPUs, "repair-cpus", 0,
		"partition repair+audit into recovery domains over this many CPUs; per-domain phase spans appear in the trace (0/1 = serial; implies audit)")
	flag.IntVar(&o.FindFailed, "find-failed", 0,
		"scan up to N seeds from -seed for a run that fails recovery or escalates, and render that run")
	flag.Parse()

	if err := render(o, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "hyperrecover-trace:", err)
		os.Exit(1)
	}
}

// options is the parsed flag set; separated from flag.Parse so tests can
// drive render directly.
type options struct {
	Seed        uint64
	Fault       string
	Mechanism   string
	Adversarial bool
	Format      string
	FlightCap   int
	RepairCPUs  int
	FindFailed  int
}

// buildRunConfig maps options to the campaign run configuration.
func buildRunConfig(o options) (campaign.RunConfig, error) {
	mech, err := core.ParseMechanism(o.Mechanism)
	if err != nil {
		return campaign.RunConfig{}, err
	}
	ft, err := inject.ParseFaultType(o.Fault)
	if err != nil {
		return campaign.RunConfig{}, err
	}
	rc := campaign.RunConfig{
		Seed:                   o.Seed,
		Fault:                  ft,
		Recovery:               core.Config{Mechanism: mech, Enhancements: core.AllEnhancements},
		FlightRecorderCapacity: o.FlightCap,
	}
	if o.Adversarial {
		rc.Recovery = core.HybridConfig()
		rc.Recovery.Escalation.Audit = true
		rc.BurstWindow = 100 * time.Millisecond
		rc.BurstFault = inject.Register
		rc.FaultDuringRecovery = true
	}
	if o.RepairCPUs > 1 {
		rc.Recovery.RepairCPUs = o.RepairCPUs
		rc.Recovery.Escalation.Audit = true
	}
	return rc, nil
}

// render executes the run (scanning seeds if asked) and writes the
// requested rendering to w; the one-line run verdict goes to diag so a
// redirected chrome trace stays pure JSON.
func render(o options, w, diag io.Writer) error {
	rc, err := buildRunConfig(o)
	if err != nil {
		return err
	}
	res, tel, jrn := campaign.TraceRun(rc)
	for i := 1; i < o.FindFailed && !wentWrong(res); i++ {
		rc.Seed++
		res, tel, jrn = campaign.TraceRun(rc)
	}
	if tel == nil {
		return fmt.Errorf("run failed to boot: %s", res.FailReason)
	}
	if o.FindFailed > 0 && !wentWrong(res) {
		return fmt.Errorf("no failed or escalated run in %d seed(s) from %d", o.FindFailed, o.Seed)
	}
	fmt.Fprintf(diag, "seed %d: outcome=%v success=%v escalated=%v attempts=%d fail=%q\n",
		res.Seed, res.Outcome, res.Success, res.Escalated, res.Attempts, res.FailReason)

	switch strings.ToLower(o.Format) {
	case "chrome", "":
		// The causal journal renders as its own lane alongside the raw
		// flight-recorder lanes.
		return tel.WriteChromeTraceLanes(w, campaign.MachineCPUs, journal.TraceLane(jrn))
	case "text":
		if err := tel.WriteTextTimeline(w); err != nil {
			return err
		}
		if len(jrn) > 0 {
			fmt.Fprintln(w, "\nrecovery journal:")
			for _, e := range jrn {
				fmt.Fprintln(w, " ", e)
			}
		}
		fmt.Fprintln(w)
		return tel.WriteMetrics(w)
	default:
		return fmt.Errorf("unknown format %q (want chrome or text)", o.Format)
	}
}

// wentWrong reports whether the run's recovery story went sideways — the
// runs whose flight recording is worth looking at.
func wentWrong(r campaign.Result) bool {
	return r.Detected && (!r.Success || r.Escalated)
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"time"

	"nilihype/internal/campaign"
)

// metric is one measured value. N is the number of samples behind it;
// Kind says whether it was measured on the host or read from the
// deterministic simulation.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
	Kind  string
}

const (
	host = "host"
	sim  = "sim"
)

// e2eKeys and layerKeys are the metrics of the final JSON line in each
// mode, in the order of BENCHMARK.json's end_to_end and per_layer lists
// (a test keeps the two in step). The printed table carries more: the
// simulated latency metrics, whose values are deterministic per seed, and
// the per-class run times that have no samples on some workloads.
var (
	e2eKeys = []string{
		"runs_per_s", "setup_s", "allocs_per_run", "heap_sys_mb", "sim_success_pct",
	}
	layerKeys = []string{
		"campaign.run_ms_p50", "campaign.run_ms_p99", "campaign.run_samples",
		"campaign.recovered_run_ms_p50", "campaign.wrong_run_pct",
		"campaign.merge_us", "campaign.trace_runs_per_s", "campaign.trace_overhead_pct",
		"campaign.unattributed_pct",
		"hv.boot_ms", "hv.restore_ms", "mm.frames", "mm.scan_ms", "mm.scan_repair_ms",
		"hv.dispatch_ns", "hv.dispatches_per_run", "locking.acquisitions_per_run",
		"hv.irq_ns", "hv.irqs_per_run",
		"simclock.step_ns", "simclock.queue_high_water",
		"guest.reseed_us",
		"core.attempts_per_detected", "core.escalations_per_krun", "audit.repaired_per_krun",
		"journal.record_ns", "telemetry.flight_tail_us",
		"traffic.run_ms", "runtime.gc_cpu_pct",
	}
)

// report collects one workload's metrics and output checks.
type report struct {
	workload string
	trace    bool
	workers  int
	runs     int // campaign runs executed
	failed   int // runs in batches that failed an output check
	batches  int
	metrics  []metric
	failures []string
	// ref is the reference Summary every pass was checked against.
	ref campaign.Summary
}

func (r *report) add(name string, v float64, unit string, n int, kind string) {
	r.metrics = append(r.metrics, metric{Name: name, Value: v, Unit: unit, N: n, Kind: kind})
}

// check records a failed output check covering runs campaign runs (at
// least one operation, so a failure always shows in the failed count).
func (r *report) check(ok bool, runs int, format string, args ...any) {
	if ok {
		return
	}
	r.failed += max(runs, 1)
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// checkBatch asserts a batch produced the reference Summary.
func (r *report) checkBatch(label string, s campaign.Summary, runs int) {
	r.runs += runs
	r.check(reflect.DeepEqual(s, r.ref), runs, "%s: Summary differs from the reference", label)
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

func (r *report) correct() bool { return len(r.failures) == 0 }

// keys returns the metric names of this report's final JSON line.
func (r *report) keys() []string {
	if r.trace {
		return layerKeys
	}
	return e2eKeys
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints the metric table, the check outcomes and, last, the JSON
// result line. A listed metric that is missing or has no samples fails
// the run.
func (r *report) write(w io.Writer) error {
	mode := "end-to-end"
	if r.trace {
		mode = "per-layer (traced, 1 worker)"
	}
	fmt.Fprintf(w, "workload=%s mode=%s workers=%d batches=%d runs=%d\n",
		r.workload, mode, r.workers, r.batches, r.runs)
	fmt.Fprintf(w, "%-34s %16s %-6s %8s %s\n", "metric", "value", "unit", "samples", "kind")
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-34s %16.6g %-6s %8d %s\n", m.Name, m.Value, m.Unit, m.N, m.Kind)
	}
	out := jsonResult{Metrics: make(map[string]jsonMetric)}
	for _, k := range r.keys() {
		m, ok := r.get(k)
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.check(false, 0, "metric %s has no value", k)
			m.Value = 0
		}
		out.Metrics[k] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "check FAILED: %s\n", f)
	}
	if r.correct() {
		fmt.Fprintln(w, "checks: all passed")
	}
	out.Correct = r.correct()
	out.Attempted = max(r.runs, r.failed, 1)
	out.Failed = r.failed
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// commit is stamped at build time (-ldflags -X main.commit=...).
var commit = "unknown"

// environment describes the host a result was measured on.
func environment() string {
	return fmt.Sprintf("env: nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commit)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// workers is the end-to-end pass's campaign parallelism: one worker per
// CPU the runtime may use.
func workers() int {
	return min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

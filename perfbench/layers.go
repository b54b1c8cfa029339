package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"nilihype/internal/campaign"
	"nilihype/internal/telemetry"
)

// runLog is what the traced pass records per run, from the OnResult
// stream alone: the gap since the previous completion (a serial pass's
// run time) split by how the run ended, and the run's recovery counts.
type runLog struct {
	all, clean, recovered, wrong []float64 // run times, ms

	runs, detected, wrongRuns          int
	attempts, escalated, auditRepaired int
	journalEntries                     int
}

// tracedBatch runs one serial batch, timing each run as the gap between
// consecutive OnResult calls. The first run of each Execute also boots
// its image, so its gap is not a run time and is skipped.
func tracedBatch(w workload, runs int, seedBase uint64) (batch, runLog) {
	var lg runLog
	var last time.Time
	lastPart := -1
	b := w.execute(runs, seedBase, 1, func(part int, r campaign.Result) {
		now := time.Now()
		wrong := r.Journal != nil
		lg.runs++
		if r.Detected {
			lg.detected++
			lg.attempts += r.Attempts
		}
		if r.Escalated {
			lg.escalated++
		}
		lg.auditRepaired += r.AuditRepaired
		if wrong {
			lg.wrongRuns++
			lg.journalEntries += len(r.Journal)
		}
		if part == lastPart {
			gap := ms(now.Sub(last))
			lg.all = append(lg.all, gap)
			switch {
			case wrong:
				lg.wrong = append(lg.wrong, gap)
			case r.Detected:
				lg.recovered = append(lg.recovered, gap)
			default:
				lg.clean = append(lg.clean, gap)
			}
		}
		lastPart = part
		last = time.Now()
	})
	return b, lg
}

func (lg *runLog) appendTimes(o runLog) {
	lg.all = append(lg.all, o.all...)
	lg.clean = append(lg.clean, o.clean...)
	lg.recovered = append(lg.recovered, o.recovered...)
	lg.wrong = append(lg.wrong, o.wrong...)
}

// gcCPU reads the runtime's cumulative GC CPU time and the CPU time the
// process used (total minus idle), in seconds.
func gcCPU() (gc, used float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// measureLayers runs the traced pass: serial batches alternating with
// untraced serial batches (their ratio is the tracing overhead), then
// times each layer's public entry points from outside the program.
func measureLayers(w workload, o options) *report {
	r := &report{workload: w.name, trace: true, workers: 1}
	par := workers()

	runtime.GC()
	r.ref = w.execute(o.runs, o.seedBase(), par, nil).sum
	r.runs += o.runs
	checkReference(r, w, o.runs)

	var lg, first runLog
	var parts []campaign.Summary
	var untraced, traced []float64
	runtime.GC()
	gc0, used0 := gcCPU()
	deadline := time.Now().Add(o.budget)
	for r.batches < o.minBatches || time.Now().Before(deadline) {
		u := w.execute(o.runs, o.seedBase(), 1, nil)
		r.checkBatch("untraced serial batch", u.sum, o.runs)
		untraced = append(untraced, u.runsPerSecond())

		b, l := tracedBatch(w, o.runs, o.seedBase())
		r.checkBatch("traced serial batch", b.sum, o.runs)
		traced = append(traced, b.runsPerSecond())
		if r.batches == 0 {
			first, parts = l, b.parts
		}
		lg.appendTimes(l)
		r.batches++
	}
	gc1, used1 := gcCPU()

	p50 := median(lg.all)
	r.add("campaign.run_ms_p50", p50, "ms", len(lg.all), host)
	r.add("campaign.run_ms_p99", quantile(lg.all, 0.99), "ms", len(lg.all), host)
	r.add("campaign.run_samples", float64(len(lg.all)), "count", len(lg.all), host)
	r.add("campaign.clean_run_ms_p50", median(lg.clean), "ms", len(lg.clean), host)
	r.add("campaign.recovered_run_ms_p50", median(lg.recovered), "ms", len(lg.recovered), host)
	r.add("campaign.wrong_run_ms_p50", median(lg.wrong), "ms", len(lg.wrong), host)
	r.add("campaign.wrong_run_pct", 100*float64(first.wrongRuns)/float64(first.runs), "%", first.runs, sim)
	r.add("campaign.merge_us", mergeMicros(w, parts), "us", mergeReps, host)
	r.add("campaign.untraced_runs_per_s", median(untraced), "1/s", len(untraced), host)
	r.add("campaign.trace_runs_per_s", median(traced), "1/s", len(traced), host)
	r.add("campaign.trace_overhead_pct", 100*(1-median(traced)/median(untraced)), "%", len(traced), host)
	r.add("runtime.gc_cpu_pct", 100*(gc1-gc0)/(used1-used0), "%", 2*len(traced), host)
	r.add("core.attempts_per_detected", float64(first.attempts)/float64(first.detected), "count", first.detected, sim)
	r.add("core.escalations_per_krun", 1000*float64(first.escalated)/float64(first.runs), "count", first.runs, sim)
	r.add("audit.repaired_per_krun", 1000*float64(first.auditRepaired)/float64(first.runs), "count", first.runs, sim)
	r.add("journal.entries_per_wrong_run", float64(first.journalEntries)/float64(first.wrongRuns), "count", first.wrongRuns, sim)

	tc, err := traceCounters(w, o.seedBase())
	if err != nil {
		r.check(false, 0, "%v", err)
		return r
	}
	tc.add(r)
	if err := probeLayers(r, w, tc); err != nil {
		r.check(false, 0, "%v", err)
		return r
	}
	r.add("campaign.unattributed_pct", unattributedPct(r, w, tc, first, p50), "%", len(lg.all), host)
	return r
}

const mergeReps = 200

// mergeMicros times folding the batch's per-Execute partial Summaries
// into a fresh total, as the multi-fault batch does.
func mergeMicros(w workload, parts []campaign.Summary) float64 {
	ns := timeReps(mergeReps, func() {
		total := campaign.Summary{Config: w.base,
			FailReasons: make(map[string]int), SuccessByAttempt: make(map[int]int)}
		for _, p := range parts {
			total.Merge(p)
		}
	})
	return median(ns) / 1e3
}

// counters are per-run averages of the telemetry a cold traced run
// (campaign.TraceRun) ends with, boot included.
type counters struct {
	runs                                         int
	dispatches, locks, irqs, attempts, recovered float64
	auditRuns, journalEntries                    float64
	queueHighWater                               float64
	tel                                          *telemetry.Telemetry // of the last run, for the flight-tail probe
}

// traceRunsPerConfig is how many seeds of each fault class campaign.TraceRun
// replays for the counters.
const traceRunsPerConfig = 3

func traceCounters(w workload, seedBase uint64) (counters, error) {
	var c counters
	cfgs, _ := w.configs(len(w.faults))
	for _, rc := range cfgs {
		for k := uint64(1); k <= traceRunsPerConfig; k++ {
			rc.Seed = seedBase + k
			res, tel, entries := campaign.TraceRun(rc)
			if tel == nil {
				return c, fmt.Errorf("TraceRun seed %d: %s", rc.Seed, res.FailReason)
			}
			c.runs++
			ctr := &tel.Counters
			c.dispatches += float64(ctr[telemetry.CtrDispatches])
			c.locks += float64(ctr[telemetry.CtrLockAcquisitions])
			c.irqs += float64(ctr[telemetry.CtrTimerIRQs] + ctr[telemetry.CtrDeviceIRQs] + ctr[telemetry.CtrNMIs])
			c.attempts += float64(ctr[telemetry.CtrRecoveryAttempts])
			c.recovered += float64(ctr[telemetry.CtrRecoveries])
			c.auditRuns += float64(ctr[telemetry.CtrAuditRuns])
			c.journalEntries += float64(len(entries))
			c.queueHighWater = max(c.queueHighWater, float64(tel.Gauges[telemetry.GaugeClockQueueHighWater]))
			c.tel = tel
		}
	}
	n := float64(c.runs)
	c.dispatches /= n
	c.locks /= n
	c.irqs /= n
	c.attempts /= n
	c.recovered /= n
	c.auditRuns /= n
	c.journalEntries /= n
	return c, nil
}

func (c counters) add(r *report) {
	r.add("hv.dispatches_per_run", c.dispatches, "count", c.runs, sim)
	r.add("locking.acquisitions_per_run", c.locks, "count", c.runs, sim)
	r.add("hv.irqs_per_run", c.irqs, "count", c.runs, sim)
	r.add("simclock.queue_high_water", c.queueHighWater, "count", c.runs, sim)
}

// unattributedPct is the share of the median run time that the timed
// layer calls, weighted by how often a run makes them, do not explain.
// Frame scans per run follow the recovery code: one ScanAndRepair per
// attempt, one InconsistentFrames per completed attempt and per audit.
// Clock steps are not weighted (the run's event count is not exported),
// so their time is part of the remainder.
func unattributedPct(r *report, w workload, c counters, lg runLog, runMs float64) float64 {
	v := func(name string) float64 { m, _ := r.get(name); return m.Value }
	attributed := v("hv.restore_ms") +
		v("guest.reseed_us")/1e3 +
		v("hv.dispatch_ns")*c.dispatches/1e6 +
		v("hv.irq_ns")*c.irqs/1e6 +
		v("mm.scan_repair_ms")*c.attempts +
		v("mm.scan_ms")*(c.recovered+c.auditRuns) +
		v("journal.record_ns")*c.journalEntries/1e6 +
		v("telemetry.flight_tail_us")/1e3*float64(lg.wrongRuns)/float64(lg.runs)
	if w.base.Traffic.Enabled() {
		attributed += v("traffic.run_ms")
	}
	return 100 * (1 - attributed/runMs)
}

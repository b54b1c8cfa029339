package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"nilihype/internal/campaign"
)

// options are one invocation's settings.
type options struct {
	seed uint64
	// budget is how long the repeated measurement loop runs.
	budget time.Duration
	// runs is the batch size (the workload's, unless shortened by tests).
	runs int
	// minBatches is the fewest measured batches, whatever the budget.
	minBatches int
}

func (o options) seedBase() uint64 { return o.seed * seedStride }

// measureEndToEnd runs the untraced pass: batches of the workload's seed
// set on nproc workers, repeated until the budget is spent. Host metrics
// are medians over batches; simulated metrics come from the batch
// Summary, which every batch and a serial traced pass must reproduce.
func measureEndToEnd(w workload, o options) *report {
	r := &report{workload: w.name, workers: workers()}
	// A warm-up batch, checked but not timed, fills the reference Summary.
	// It runs on the fresh process heap, so the heap memory it leaves held
	// from the OS is the workload's footprint.
	r.ref = w.execute(o.runs, o.seedBase(), r.workers, nil).sum
	r.runs += o.runs
	checkReference(r, w, o.runs)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	heapMB := float64(m.HeapSys-m.HeapReleased) / (1 << 20)

	var setups, rates, allocs []float64
	deadline := time.Now().Add(o.budget)
	for r.batches < o.minBatches || time.Now().Before(deadline) {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b := w.execute(o.runs, o.seedBase(), r.workers, nil)
		runtime.ReadMemStats(&m1)
		r.batches++
		r.checkBatch(fmt.Sprintf("parallel batch %d", r.batches), b.sum, o.runs)
		setups = append(setups, b.setup.Seconds())
		rates = append(rates, b.runsPerSecond())
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(o.runs))
	}

	r.add("runs_per_s", median(rates), "1/s", len(rates), host)
	r.add("setup_s", median(setups), "s", len(setups), host)
	r.add("allocs_per_run", median(allocs), "count", len(allocs), host)
	r.add("heap_sys_mb", heapMB, "MB", 1, host)
	addSim(r, r.ref)

	// The serial traced pass must reproduce the parallel Summary.
	b, _ := tracedBatch(w, o.runs, o.seedBase())
	r.checkBatch("serial traced pass", b.sum, o.runs)
	checkMixedReference(r, w)
	return r
}

// checkReference asserts the reference Summary's shape and the simulated
// latency bound.
func checkReference(r *report, w workload, runs int) {
	s := r.ref
	r.check(s.Runs == runs, runs, "Summary.Runs = %d, want %d", s.Runs, runs)
	if w.base.Traffic.Enabled() {
		r.check(s.SLORuns == runs, runs, "Summary.SLORuns = %d, want %d", s.SLORuns, runs)
	}
	r.check(s.DetectedCount > 0, runs, "no detected runs: the simulated recovery metrics are undefined")
	worst := w.base.Recovery.WorstCaseLatency(w.frames())
	r.check(s.MeanSuccessLatency() <= worst, runs,
		"sim_recovery_ms %.3f exceeds the configuration's worst case %.3f", ms(s.MeanSuccessLatency()), ms(worst))
}

// checkMixedReference asserts that a multi-fault batch is exactly
// campaign.MixedFaultCampaign. That function always starts at seed 1, so
// the check uses a small batch at seed base 0.
func checkMixedReference(r *report, w workload) {
	if len(w.faults) == 0 {
		return
	}
	const perFault = 2
	n := perFault * len(w.faults)
	got := w.execute(n, 0, r.workers, nil).sum
	want := campaign.MixedFaultCampaign(w.base, w.faults, perFault, r.workers)
	r.runs += 2 * n
	r.check(reflect.DeepEqual(got, want), 2*n, "batch Summary differs from campaign.MixedFaultCampaign")
}

// addSim adds the simulated end-to-end metrics of a Summary.
func addSim(r *report, s campaign.Summary) {
	rate, _ := s.SuccessRate()
	r.add("sim_success_pct", 100*rate, "%", s.DetectedCount, sim)
	r.add("sim_recovery_ms", ms(s.MeanSuccessLatency()), "ms", s.RecoverySuccess, sim)
	if s.SLORuns > 0 {
		r.add("sim_degraded_user_s", s.SLO.DegradedUserSeconds()/float64(s.SLORuns), "user-s", s.SLORuns, sim)
	}
}

package main

import (
	"fmt"
	"time"

	"nilihype/internal/campaign"
	"nilihype/internal/core"
	"nilihype/internal/inject"
	"nilihype/internal/traffic"
)

// workload is one fixed campaign shape. A batch runs `runs` seeds starting
// at the invocation's seed base, split evenly over faults (one
// Campaign.Execute per fault class, merged like campaign.MixedFaultCampaign)
// or, with no faults listed, one Execute of base as configured.
type workload struct {
	name string
	why  string
	base campaign.RunConfig
	// faults, when set, replaces base.Fault with an equal share of seeds
	// per fault class.
	faults []inject.FaultType
	// runs is the batch size. It is fixed per workload so the simulated
	// metrics of a seed never depend on how many batches fit in a run.
	runs int
}

// seedStride separates the seed ranges of different --seed values.
const seedStride = 1_000_000

func bigmemConfig() campaign.RunConfig {
	rc := campaign.ThroughputBenchConfig()
	rc.MemoryMB = 8192
	return rc
}

func ladderMixConfig() campaign.RunConfig {
	rec := core.FullLadderConfig()
	rec.RepairCPUs = 2
	return campaign.RunConfig{
		Setup:         campaign.ThreeAppVM,
		Logging:       true,
		Recovery:      rec,
		BenchDuration: 2 * time.Second,
		Traffic:       traffic.Config{Users: 1_000_000},
	}
}

var workloads = []workload{
	{
		name: "unixbench-failstop",
		why:  "the paper's primary 1AppVM/UnixBench failstop config at 1 GB; guest hypercall dispatch and IRQ delivery dominate host time",
		base: campaign.ThroughputBenchConfig(),
		runs: 512,
	},
	{
		name: "bigmem-failstop",
		why:  "the same config on the 8 GB latency machine (Table III); frame-table restore and scans dominate host time",
		base: bigmemConfig(),
		runs: 192,
	},
	{
		name:   "3vm-ladder-mix",
		why:    "3AppVM full ladder with 1M traffic users over register, code, PrivVM-hang and IO-APIC faults; covers recovery, audit and forensics paths",
		base:   ladderMixConfig(),
		faults: []inject.FaultType{inject.Register, inject.Code, inject.PrivVMHang, inject.DeviceIOAPIC},
		runs:   192,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// configs returns one RunConfig per Campaign.Execute of a batch, with the
// number of runs each gets.
func (w workload) configs(runs int) ([]campaign.RunConfig, int) {
	if len(w.faults) == 0 {
		return []campaign.RunConfig{w.base}, runs
	}
	out := make([]campaign.RunConfig, len(w.faults))
	for i, f := range w.faults {
		out[i] = w.base
		out[i].Fault = f
	}
	return out, runs / len(w.faults)
}

// frames is the machine's page-frame count (4 KiB frames).
func (w workload) frames() int {
	mb := w.base.MemoryMB
	if mb == 0 {
		mb = 1024
	}
	return mb * 256
}

// batch is one execution of a workload's seed set.
type batch struct {
	sum   campaign.Summary
	parts []campaign.Summary // one per Execute, in fault order
	// setup is the wall time from the batch start to its first completed
	// run: booting the first Execute's images plus one run.
	setup time.Duration
	// steady and steadyRuns cover each Execute from its first completed
	// run to its return, summed, so image builds are excluded.
	steady     time.Duration
	steadyRuns int
}

func (b batch) runsPerSecond() float64 {
	if b.steady <= 0 {
		return 0
	}
	return float64(b.steadyRuns) / b.steady.Seconds()
}

// execute runs one batch with par workers. onResult, when set, sees every
// completed run in completion order, with the Execute index it belongs to.
func (w workload) execute(runs int, seedBase uint64, par int, onResult func(part int, r campaign.Result)) batch {
	cfgs, per := w.configs(runs)
	b := batch{sum: campaign.Summary{Config: w.base,
		FailReasons: make(map[string]int), SuccessByAttempt: make(map[int]int)}}
	start := time.Now()
	for i, rc := range cfgs {
		var first time.Time
		c := campaign.Campaign{Base: rc, Runs: per, Parallelism: par, SeedBase: seedBase,
			OnResult: func(r campaign.Result) {
				if first.IsZero() {
					first = time.Now()
				}
				if onResult != nil {
					onResult(i, r)
				}
			}}
		s := c.Execute()
		end := time.Now()
		if i == 0 {
			b.setup = first.Sub(start)
		}
		b.steady += end.Sub(first)
		b.steadyRuns += per - 1
		b.parts = append(b.parts, s)
		b.sum.Merge(s)
	}
	b.sum.Config = w.base
	return b
}

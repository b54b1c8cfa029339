package main

import (
	"fmt"
	"runtime"
	"time"

	"nilihype/internal/campaign"
	"nilihype/internal/guest"
	"nilihype/internal/hv"
	"nilihype/internal/hw"
	"nilihype/internal/hypercall"
	"nilihype/internal/journal"
	"nilihype/internal/simclock"
	"nilihype/internal/traffic"
)

// Machine shape and guest placement of campaign runs. These mirror the
// campaign package's unexported boot configuration, so each probe works
// on the same machine a workload's runs fork from.
const (
	heapFrames = 32768
	unixDom    = 1
	unixCPU    = 1
	netDom     = 2
	netCPU     = 2
)

func machineConfig(w workload) hv.Config {
	return hv.Config{
		Machine: hw.Config{
			CPUs:     campaign.MachineCPUs,
			MemoryMB: w.frames() / 256,
			BlockSvc: 200 * time.Microsecond,
			NICLat:   30 * time.Microsecond,
		},
		HeapFrames:     heapFrames,
		LoggingEnabled: w.base.Logging,
		RecoveryPrep:   true,
		Seed:           1,
	}
}

func boot(w workload) (*simclock.Clock, *hv.Hypervisor, error) {
	clk := simclock.New()
	h, err := hv.New(clk, machineConfig(w))
	if err != nil {
		return nil, nil, fmt.Errorf("hv.New: %w", err)
	}
	if err := h.Boot(); err != nil {
		return nil, nil, fmt.Errorf("hv.Boot: %w", err)
	}
	return clk, h, nil
}

// reps scales a probe's repetition count down on the 8 GB machine, where
// each frame-table call is eight times longer.
func reps(w workload, n int) int {
	return max(n*1024*256/w.frames(), 5)
}

// probeLayers times calls into each layer's public functions at the
// workload's machine shape. Every value is the median of its repetitions.
func probeLayers(r *report, w workload, c counters) error {
	// hv.New + Boot.
	n := reps(w, 16)
	boots := make([]float64, n)
	for i := range boots {
		runtime.GC()
		t := time.Now()
		if _, _, err := boot(w); err != nil {
			return err
		}
		boots[i] = ms(time.Since(t))
	}
	r.add("hv.boot_ms", median(boots), "ms", n, host)

	// Snapshot/Restore and the full frame-table walks.
	_, h, err := boot(w)
	if err != nil {
		return err
	}
	snap := h.Snapshot()
	n = reps(w, 64)
	r.add("hv.restore_ms", median(timeReps(n, func() { h.Restore(snap) }))/1e6, "ms", n, host)
	r.add("mm.frames", float64(h.Frames.Len()), "count", 1, sim)
	r.add("mm.scan_ms", median(timeReps(n, func() { h.Frames.InconsistentFrames() }))/1e6, "ms", n, host)
	r.add("mm.scan_repair_ms", median(timeReps(n, func() { h.Frames.ScanAndRepair() }))/1e6, "ms", n, host)

	if err := probeDispatch(r, h); err != nil {
		return err
	}
	if err := probeReseed(r, w); err != nil {
		return err
	}
	probeClock(r, int(c.queueHighWater))
	probeJournal(r)

	const tailReps = 500
	r.add("telemetry.flight_tail_us",
		median(timeReps(tailReps, func() { c.tel.FlightTail(64) }))/1e3, "us", tailReps, host)

	probeTraffic(r)
	return nil
}

// probeDispatch times Hypervisor.Dispatch on a fixed call mix shaped like
// one UnixBench iteration (a pin multicall, forwarded syscalls, unpins, a
// reservation change and a yield) and DeliverInterrupt on the timer and
// both device vectors. The mix leaves the system as it found it.
func probeDispatch(r *report, h *hv.Hypervisor) error {
	if err := h.CreateDomain(unixDom, "probe", guest.DefaultMemPages, unixCPU, false); err != nil {
		return fmt.Errorf("CreateDomain: %w", err)
	}
	d, err := h.Domain(unixDom)
	if err != nil {
		return err
	}
	const pins = 4
	var pinCalls [pins]hypercall.Call
	var batch hypercall.Call
	components := make([]*hypercall.Call, pins)
	for i := range pinCalls {
		pinCalls[i] = hypercall.Call{Op: hypercall.OpMMUUpdate, Dom: unixDom,
			Args: [4]uint64{hypercall.MMUPin, uint64(d.MemStart + i)}}
		components[i] = &pinCalls[i]
	}
	mix := make([]*hypercall.Call, 0, 16)
	mix = append(mix, &batch)
	for i := 0; i < 4; i++ {
		mix = append(mix, &hypercall.Call{Op: hypercall.OpSyscallForward, Dom: unixDom})
	}
	for i := 0; i < pins; i++ {
		mix = append(mix, &hypercall.Call{Op: hypercall.OpMMUUpdate, Dom: unixDom,
			Args: [4]uint64{hypercall.MMUUnpin, uint64(d.MemStart + i)}})
	}
	mix = append(mix,
		&hypercall.Call{Op: hypercall.OpMemoryOp, Dom: unixDom, Args: [4]uint64{hypercall.MemPopulate, 8}},
		&hypercall.Call{Op: hypercall.OpMemoryOp, Dom: unixDom, Args: [4]uint64{hypercall.MemRelease, 8}},
		&hypercall.Call{Op: hypercall.OpSchedOp, Dom: unixDom, Args: [4]uint64{hypercall.SchedYield}},
	)
	const n = 2000
	dispatch := timeReps(n, func() {
		batch = hypercall.Call{Op: hypercall.OpMulticall, Dom: unixDom, Batch: components}
		for _, c := range mix {
			h.Dispatch(unixCPU, c)
		}
	})
	if failed, reason := h.Failed(); failed {
		return fmt.Errorf("dispatch probe: hypervisor failed: %s", reason)
	}
	for _, c := range mix {
		if !c.Done {
			return fmt.Errorf("dispatch probe: %v did not complete", c)
		}
	}
	r.add("hv.dispatch_ns", median(dispatch)/float64(len(mix)), "ns", n*len(mix), host)

	vectors := []hw.Vector{hw.VecTimer, hw.VecBlock, hw.VecNIC}
	delivered := 0
	irq := timeReps(n, func() {
		for _, v := range vectors {
			if h.DeliverInterrupt(unixCPU, v) {
				delivered++
			}
		}
	})
	if delivered != n*len(vectors) {
		return fmt.Errorf("interrupt probe: %d of %d interrupts delivered", delivered, n*len(vectors))
	}
	r.add("hv.irq_ns", median(irq)/float64(len(vectors)), "ns", delivered, host)
	return nil
}

// probeReseed times World.Reseed plus SeedAppVM for each of the
// workload's AppVMs, after restoring the pristine snapshot as a forked
// run does.
func probeReseed(r *report, w workload) error {
	_, h, err := boot(w)
	if err != nil {
		return err
	}
	world := guest.NewWorld(h, 1)
	world.StartPrivVM()
	cfgs := []guest.Config{{Kind: w.base.Workload, Dom: unixDom, CPU: unixCPU, Duration: w.base.BenchDuration}}
	if w.base.Setup == campaign.ThreeAppVM {
		cfgs = []guest.Config{
			{Kind: guest.UnixBench, Dom: unixDom, CPU: unixCPU, Duration: w.base.BenchDuration},
			{Kind: guest.NetBench, Dom: netDom, CPU: netCPU, Duration: w.base.BenchDuration},
		}
	}
	for _, cfg := range cfgs {
		if _, err := world.CreateAppVM(cfg); err != nil {
			return fmt.Errorf("CreateAppVM: %w", err)
		}
	}
	snap, wsnap := h.Snapshot(), world.Snapshot()
	n := reps(w, 64)
	ns := make([]float64, n)
	for i := range ns {
		h.Restore(snap)
		world.Restore(wsnap)
		t := time.Now()
		world.Reseed(uint64(i) ^ 0x5eed)
		for _, cfg := range cfgs {
			world.SeedAppVM(cfg.Dom)
		}
		ns[i] = float64(time.Since(t).Nanoseconds())
	}
	r.add("guest.reseed_us", median(ns)/1e3, "us", n, host)
	return nil
}

// probeClock times one Clock.At plus one Step with the queue held at the
// depth a run reaches. Delays come from a fixed linear congruential
// sequence, so every invocation schedules the same events.
func probeClock(r *report, depth int) {
	clk := simclock.New()
	fn := func() {}
	x := uint64(1)
	delay := func() time.Duration {
		x = x*6364136223846793005 + 1442695040888963407
		return time.Duration(1+(x>>33)%10_000) * time.Microsecond
	}
	for i := 0; i < max(depth, 1); i++ {
		clk.After(delay(), "probe", fn)
	}
	const n, perRep = 200, 1000
	ns := timeReps(n, func() {
		for i := 0; i < perRep; i++ {
			clk.After(delay(), "probe", fn)
			clk.Step()
		}
	})
	r.add("simclock.step_ns", median(ns)/perRep, "ns", n*perRep, host)
}

// probeJournal times the emitters of one escalated recovery's narrative
// on a fresh journal.
func probeJournal(r *report) {
	const n = 2000
	const events = 11
	ns := make([]float64, n)
	for i := range ns {
		j := journal.New(journal.DefaultCapacity)
		t := time.Now()
		at := time.Millisecond
		j.Fault(at, 1, "register bit flip", "primary")
		j.Corruption(at, 1, "heap.freelist")
		j.Detect(at, 1, "panic")
		j.Attempt(at, 1, "microreset", 1)
		j.Pause(at, 1)
		j.Audit(at, 0, 2, 1, 0, 1)
		j.AttemptFail(at, 0, "re-detected within grace window")
		j.Escalate(at, 0, "microreboot")
		j.Attempt(at, 0, "microreboot", 2)
		j.Resume(at, 0)
		j.Disposition(at, "recovered", "")
		ns[i] = float64(time.Since(t).Nanoseconds())
	}
	r.add("journal.record_ns", median(ns)/events, "ns", n*events, host)
}

// probeTraffic times the open-loop traffic engine of the ladder mix (one
// million users) through a full benchmark horizon on a bare clock.
func probeTraffic(r *report) {
	cfg := ladderMixConfig()
	e := traffic.New(cfg.Traffic)
	const n = 100
	ns := timeReps(n, func() {
		clk := simclock.New()
		e.Start(clk, nil, cfg.BenchDuration)
		clk.RunUntil(cfg.BenchDuration)
		e.Finish()
	})
	r.add("traffic.run_ms", median(ns)/1e6, "ms", n, host)
}

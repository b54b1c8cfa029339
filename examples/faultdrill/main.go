// Faultdrill: a microscope on one fault. It injects a fail-stop fault at
// a precisely chosen point — inside an mmu_update pin, after the page
// reference count was incremented but before the hypercall completed — and
// shows the hazard state the recovery engine faces (held locks, stale IRQ
// count, the half-updated descriptor), then walks the microreset and the
// hypercall retry to completion.
//
// This is the paper's §IV non-idempotent-hypercall example made visible.
package main

import (
	"fmt"
	"log"
	"time"

	"nilihype/internal/core"
	"nilihype/internal/detect"
	"nilihype/internal/guest"
	"nilihype/internal/hv"
	"nilihype/internal/hypercall"
	"nilihype/internal/simclock"
	"nilihype/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	clk := simclock.New()
	h, err := hv.New(clk, hv.DefaultConfig())
	if err != nil {
		return err
	}
	if err := h.Boot(); err != nil {
		return err
	}
	world := guest.NewWorld(h, 1)
	if _, err := world.AddAppVM(guest.Config{Kind: guest.UnixBench, Dom: 1, CPU: 1,
		Duration: 2 * time.Second}); err != nil {
		return err
	}
	engine := core.NewEngine(h, core.DefaultConfig())
	det := detect.New(h, engine.OnDetection)
	engine.Det = det
	det.Start()
	clk.RunUntil(100 * time.Millisecond)

	d, err := h.Domain(1)
	if err != nil {
		return err
	}
	frame := d.MemStart + 123

	// Arm the trigger to land inside the pin, right after inc_refcount:
	// entry(150) + lock(40) + inc(60) = 250 instructions consumed, so
	// the fault hits the next step (write_pte) with the count already
	// bumped but the hypercall incomplete.
	f := h.Frames.Frame(frame)
	h.ArmInjection(260, func(pt hv.InjectionPoint) (hv.InjectAction, string) {
		fmt.Printf("fault lands in %s at step %q\n", pt.Activity, pt.StepName)
		fmt.Printf("\nhazard state at the instant of the fault:\n")
		fmt.Printf("  frame %d: UseCount=%d Validated=%v  <- half-updated (§IV)\n",
			frame, f.UseCount, f.Validated)
		fmt.Printf("  locks held by the dying thread:\n")
		for _, l := range pt.HeldLocks {
			fmt.Printf("    - %s (%v)\n", l.Name(), l.Kind())
		}
		fmt.Printf("  undo log records pending: %d\n", h.PerCPU(1).Env.Undo.Len())
		return hv.ActionPanic, "failstop (drill)"
	})

	fmt.Printf("dispatching mmu_update pin of frame %d...\n", frame)
	h.Dispatch(1, &hypercall.Call{Op: hypercall.OpMMUUpdate, Dom: 1,
		Args: [4]uint64{hypercall.MMUPin, uint64(frame)}})

	fmt.Printf("\nstate after the microreset repairs (resume pending):\n")
	fmt.Printf("  frame %d: UseCount=%d Validated=%v  <- consistency scan ran\n",
		frame, f.UseCount, f.Validated)
	fmt.Printf("  page_alloc lock held: %v  <- heap-lock release ran\n", d.PageAllocLock.Held())
	fmt.Printf("  local_irq_count: %d  <- cleared\n", h.IRQCount(1))

	fmt.Printf("\nmicroreset completes (%d descriptors scanned)...\n", h.Frames.Len())
	clk.RunUntil(clk.Now() + 500*time.Millisecond)

	fmt.Printf("\nafter recovery (+retry):\n")
	fmt.Printf("  engine: %s\n", engine.Summary())
	fmt.Printf("  frame %d: UseCount=%d Validated=%v  <- rolled back and re-pinned\n",
		frame, f.UseCount, f.Validated)
	fmt.Printf("  page_alloc lock held: %v\n", d.PageAllocLock.Held())
	fmt.Printf("  local_irq_count: %d\n", h.IRQCount(1))
	fmt.Printf("  hypercalls retried: %d\n", h.Tel.Counters[telemetry.CtrRetries])
	if failed, why := h.Failed(); failed {
		return fmt.Errorf("hypervisor failed: %s", why)
	}
	return nil
}

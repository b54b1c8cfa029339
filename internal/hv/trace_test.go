package hv

import (
	"slices"
	"testing"

	"nilihype/internal/hypercall"
)

func TestTraceRecordsFullRecoveryTimeline(t *testing.T) {
	h, _ := newBooted(t)
	addAppVM(t, h, 1, 1)
	h.SetPanicHook(func(int, string) {})

	d, _ := h.Domain(1)
	h.ArmInjection(250, func(InjectionPoint) (InjectAction, string) {
		return ActionPanic, "failstop"
	})
	mark := h.Tel.Flight.Total()
	h.Dispatch(1, &hypercall.Call{Op: hypercall.OpMMUUpdate, Dom: 1,
		Args: [4]uint64{hypercall.MMUPin, uint64(d.MemStart + 7)}})
	pending := h.DiscardAllThreads()
	h.Locks.UnlockHeapLocks()
	h.ClearIRQCounts()
	h.ReenableCPUs()
	h.RetryPendingCalls(pending)

	// The flight ring holds the whole story in order: the call, the
	// injected failstop and its panic, every CPU's discarded thread, then
	// the retry re-dispatching and completing the call.
	want := []string{
		"cpu1 dispatch mmu_update", "cpu1 inject failstop", "cpu1 panic failstop",
		"cpu0 discard cpu0", "cpu1 discard cpu1", "cpu2 discard cpu2", "cpu3 discard cpu3",
		"cpu1 retry mmu_update", "cpu1 dispatch mmu_update", "cpu1 complete mmu_update",
	}
	if got := flightSince(h, mark); !slices.Equal(got, want) {
		t.Fatalf("flight timeline:\n got %q\nwant %q", got, want)
	}
}

func TestTraceDropAndSpinEvents(t *testing.T) {
	h, _ := newBooted(t)
	addAppVM(t, h, 1, 1)
	h.SetPanicHook(func(int, string) {})

	// Spin event.
	h.Statics.Console.TryAcquire(3)
	mark := h.Tel.Flight.Total()
	h.Dispatch(1, &hypercall.Call{Op: hypercall.OpConsoleIO, Dom: 1})
	if n := flightCount(h, mark, "cpu1 spin console_lock"); n != 1 {
		t.Fatalf("spin flight events = %d, want 1: %v", n, flightSince(h, mark))
	}
	// Drop event.
	pending := h.DiscardAllThreads()
	mark = h.Tel.Flight.Total()
	h.DropPendingCalls(pending)
	if got := flightSince(h, mark); len(got) != 1 || got[0] != "cpu1 drop console_io" {
		t.Fatalf("flight after drop = %v, want one cpu1 drop console_io", got)
	}
}

// Package mm models the hypervisor's memory-management state: the page
// frame descriptor table (Xen's struct page_info array), the hypervisor
// heap allocator, and guest page-table accounting.
//
// Two pieces of this state drive the paper's results directly:
//
//   - Each page frame descriptor holds a validation bit and a use counter
//     that hypercall handlers update separately. A fault between the two
//     updates leaves them inconsistent; the recovery-time consistency scan
//     (both mechanisms run it) walks every descriptor and repairs the
//     mismatch. The scan dominates NiLiHype's 22 ms recovery latency
//     (Table III) and scales with memory size (§VII-B).
//
//   - The heap's allocated-page set is what ReHype must record and
//     re-integrate across reboot (Table II "Memory initialization").
//
// The simulated scan walks every descriptor, and callers charge its
// simulated time per Len(). The simulator's own host-side work is kept
// apart from that modelled cost: once a FrameTable has been snapshotted
// it tracks which descriptors changed since, so Restore copies, and the
// scans visit, only those descriptors plus the snapshot's own
// inconsistent set. All mutation therefore goes through the FrameTable
// API (Frame, AssignRange, CorruptRandomDescriptor, ScanAndRepair,
// Restore); read-only callers use At so reads do not grow the dirty set.
package mm

import (
	"fmt"
	"math/rand/v2"
	"slices"
)

// FrameType classifies a physical page frame.
type FrameType int

// Frame types.
const (
	FrameFree      FrameType = iota + 1 // on the heap free list
	FrameHeap                           // allocated from the hypervisor heap
	FrameGuest                          // owned by a guest as ordinary RAM
	FramePageTable                      // validated as a guest page table
)

// String returns the frame type name.
func (t FrameType) String() string {
	switch t {
	case FrameFree:
		return "free"
	case FrameHeap:
		return "heap"
	case FrameGuest:
		return "guest"
	case FramePageTable:
		return "pagetable"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// NoDomain marks a frame with no owning domain.
const NoDomain = -1

// PageFrame is one page frame descriptor. UseCount and Validated are the
// two components the paper calls out as separately updated and therefore
// vulnerable to being left inconsistent by a partially executed hypercall
// (§VII-B).
type PageFrame struct {
	Type      FrameType
	Owner     int // owning domain, NoDomain if none
	UseCount  int // reference/type count
	Validated bool
}

// consistent reports whether the descriptor satisfies the invariant the
// recovery scan enforces: a validated page-table frame must be referenced,
// and a referenced page-table frame must be validated.
func (f *PageFrame) consistent() bool {
	if f.Type != FramePageTable {
		return true
	}
	return (f.UseCount > 0) == f.Validated
}

// FrameTable is the array of page frame descriptors covering physical
// memory.
//
// After the first Snapshot the table is tracked against base, the
// snapshot it was last captured into or restored from: a descriptor whose
// bit in dirty is clear equals base's copy bit for bit, and every set bit
// is listed once in dirtyList. Before the first Snapshot (cold boot) base
// is nil and every scan walks the whole array.
type FrameTable struct {
	frames []PageFrame

	base      *FrameTableSnapshot
	dirty     []uint64
	dirtyList []int
}

// NewFrameTable builds a table of n free frames.
func NewFrameTable(n int) *FrameTable {
	ft := &FrameTable{frames: make([]PageFrame, n)}
	for i := range ft.frames {
		ft.frames[i] = PageFrame{Type: FrameFree, Owner: NoDomain}
	}
	return ft
}

// Len returns the number of page frames.
func (ft *FrameTable) Len() int { return len(ft.frames) }

// Frame returns descriptor i for mutation and marks it dirty. The pointer
// must not be kept past the step that took it: a later Snapshot or
// Restore would not see writes made through it.
func (ft *FrameTable) Frame(i int) *PageFrame {
	ft.markDirty(i)
	return &ft.frames[i]
}

// At returns a copy of descriptor i for inspection.
func (ft *FrameTable) At(i int) PageFrame { return ft.frames[i] }

// markDirty records that descriptor i may differ from base.
func (ft *FrameTable) markDirty(i int) {
	if ft.base != nil && !ft.isDirty(i) {
		ft.dirty[i>>6] |= uint64(1) << (uint(i) & 63)
		ft.dirtyList = append(ft.dirtyList, i)
	}
}

func (ft *FrameTable) isDirty(i int) bool {
	return ft.dirty[i>>6]&(uint64(1)<<(uint(i)&63)) != 0
}

// CountType returns how many frames have the given type.
func (ft *FrameTable) CountType(t FrameType) int {
	n := 0
	for i := range ft.frames {
		if ft.frames[i].Type == t {
			n++
		}
	}
	return n
}

// eachInconsistent calls fn with the index of every descriptor violating
// the validation-bit/use-counter invariant. An untracked table walks every
// descriptor; a tracked one visits the base's inconsistent set minus what
// changed since, then the changed descriptors.
func (ft *FrameTable) eachInconsistent(fn func(i int)) {
	if ft.base == nil {
		for i := range ft.frames {
			if !ft.frames[i].consistent() {
				fn(i)
			}
		}
		return
	}
	for _, i := range ft.base.bad {
		if !ft.isDirty(i) {
			fn(i)
		}
	}
	for _, i := range ft.dirtyList {
		if !ft.frames[i].consistent() {
			fn(i)
		}
	}
}

// InconsistentCount returns how many descriptors violate the
// validation-bit/use-counter invariant, without allocating.
func (ft *FrameTable) InconsistentCount() int {
	n := 0
	ft.eachInconsistent(func(int) { n++ })
	return n
}

// InconsistentFrames returns the indices of descriptors violating the
// validation-bit/use-counter invariant, in ascending order.
func (ft *FrameTable) InconsistentFrames() []int {
	var out []int
	ft.eachInconsistent(func(i int) { out = append(out, i) })
	slices.Sort(out)
	return out
}

// ScanAndRepair is the recovery-time consistency scan: it repairs every
// validation-bit/use-counter mismatch and returns the number repaired.
// The caller charges simulated time proportional to Len() (Table III:
// 21 ms for the 2M descriptors of an 8 GB host); on a tracked table the
// host only visits the dirty descriptors and the base's inconsistent set.
func (ft *FrameTable) ScanAndRepair() int {
	repaired := 0
	// A repaired base descriptor joins the dirty list after the base loop
	// has visited it; the dirty-list loop then finds it consistent.
	ft.eachInconsistent(func(i int) {
		// Repair direction mirrors Xen: trust the use counter when it
		// is positive (a reference exists, so finish the validation);
		// otherwise drop the stale validation.
		f := ft.Frame(i)
		f.Validated = f.UseCount > 0
		repaired++
	})
	return repaired
}

// CorruptRandomDescriptor flips one descriptor into an inconsistent state,
// modeling error propagation into the frame table. It returns the frame
// index.
func (ft *FrameTable) CorruptRandomDescriptor(rng *rand.Rand) int {
	i := rng.IntN(len(ft.frames))
	f := ft.Frame(i)
	f.Type = FramePageTable
	if rng.IntN(2) == 0 {
		f.UseCount = 1 + rng.IntN(3)
		f.Validated = false
	} else {
		f.UseCount = 0
		f.Validated = true
	}
	return i
}

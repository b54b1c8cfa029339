package mm

import (
	"fmt"

	"nilihype/internal/locking"
)

// FrameTableSnapshot is a full copy of the page frame descriptor array
// plus the ascending indices of the descriptors that were inconsistent
// when it was taken. A snapshot is immutable once captured.
type FrameTableSnapshot struct {
	frames []PageFrame
	bad    []int
}

// snapshotChunk is how many descriptors Snapshot copies before checking
// them: the check then reads the copy while it is still in cache, so the
// inconsistent set costs no second pass over memory.
const snapshotChunk = 1024

// Snapshot captures every descriptor and makes the snapshot the table's
// dirty-tracking base: until the next Snapshot or a Restore to another
// snapshot, Restore(s) copies back only what changed since.
func (ft *FrameTable) Snapshot() *FrameTableSnapshot {
	s := &FrameTableSnapshot{frames: make([]PageFrame, len(ft.frames))}
	for lo := 0; lo < len(ft.frames); lo += snapshotChunk {
		hi := min(lo+snapshotChunk, len(ft.frames))
		copy(s.frames[lo:hi], ft.frames[lo:hi])
		for i := lo; i < hi; i++ {
			if !s.frames[i].consistent() {
				s.bad = append(s.bad, i)
			}
		}
	}
	ft.rebase(s)
	return s
}

// Restore rewrites the table to equal the snapshot. Restoring the base
// copies only the dirty descriptors; restoring any other snapshot copies
// every descriptor and makes that snapshot the new base.
func (ft *FrameTable) Restore(s *FrameTableSnapshot) {
	if len(s.frames) != len(ft.frames) {
		panic(fmt.Sprintf("mm: restoring a %d-frame snapshot into a %d-frame table",
			len(s.frames), len(ft.frames)))
	}
	if s != ft.base {
		copy(ft.frames, s.frames)
		ft.rebase(s)
		return
	}
	for _, i := range ft.dirtyList {
		ft.frames[i] = s.frames[i]
	}
	ft.clearDirty()
}

// rebase makes s, which the table now equals, the dirty-tracking base.
func (ft *FrameTable) rebase(s *FrameTableSnapshot) {
	if ft.dirty == nil {
		ft.dirty = make([]uint64, (len(ft.frames)+63)/64)
	}
	ft.clearDirty()
	ft.base = s
}

// clearDirty empties the dirty set. Every set bit is listed, so zeroing
// the listed bits' words clears the bitmap.
func (ft *FrameTable) clearDirty() {
	for _, i := range ft.dirtyList {
		ft.dirty[i>>6] = 0
	}
	ft.dirtyList = ft.dirtyList[:0]
}

// objectState is one live heap object's captured contents. The *Object
// pointer is part of the snapshot: domains and other structures hold
// references to their objects, so restore revives the same objects in
// place.
type objectState struct {
	obj    *Object
	tag    string
	pages  []int
	locks  []*locking.Lock
	canary uint64
}

// HeapSnapshot captures the heap allocator: the free list in LIFO order,
// the live-object set with each object's contents, and the ID counter.
type HeapSnapshot struct {
	free    []int
	objects []objectState
	nextID  uint64
}

// Snapshot captures the heap state. Objects are saved in ID order so a
// restore rebuilds the map deterministically (map iteration order is
// irrelevant to behavior, but the snapshot itself should not depend on
// it).
func (h *Heap) Snapshot() *HeapSnapshot {
	s := &HeapSnapshot{
		free:   append([]int(nil), h.free...),
		nextID: h.nextID,
	}
	for id := uint64(0); id < h.nextID; id++ {
		o, ok := h.objects[id]
		if !ok {
			continue
		}
		s.objects = append(s.objects, objectState{
			obj:    o,
			tag:    o.Tag,
			pages:  append([]int(nil), o.Pages...),
			locks:  append([]*locking.Lock(nil), o.locks...),
			canary: o.canary,
		})
	}
	return s
}

// Restore rewinds the heap to the snapshot: the free list regains its
// saved LIFO order (allocation order after a restore is bit-identical to
// allocation order after a fresh boot), objects allocated since the
// snapshot drop out of the object map, and snapshot objects — freed,
// corrupted, or mutated since — are revived in place with their saved
// contents.
func (h *Heap) Restore(s *HeapSnapshot) {
	h.free = append(h.free[:0], s.free...)
	h.nextID = s.nextID
	for id := range h.objects {
		delete(h.objects, id)
	}
	for i := range s.objects {
		st := &s.objects[i]
		o := st.obj
		o.Tag = st.tag
		o.Pages = append(o.Pages[:0], st.pages...)
		o.locks = append(o.locks[:0], st.locks...)
		o.freed = false
		o.canary = st.canary
		h.objects[o.ID] = o
	}
}

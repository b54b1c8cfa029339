package hypercall

import (
	"nilihype/internal/dom"
	"nilihype/internal/grant"
	"nilihype/internal/mm"
)

// UndoKind selects a data-driven undo action. The hot handlers (MMU
// pin/unpin, memory_op, grant map/unmap, EPT populate/unmap) log one undo
// record per critical write on the campaign fast path; closure-based
// records would allocate a capture per write, so the common reversals are
// encoded as plain data applied by UndoRecord.apply instead. UndoFunc
// remains for the rare records (domctl) whose reversal is irreducibly a
// callback.
type UndoKind uint8

// Undo record kinds.
const (
	// UndoFunc runs the record's Undo closure (legacy/rare path).
	UndoFunc UndoKind = iota
	// UndoFrameUseDelta adds Arg to descriptor Frame's UseCount (raw
	// counter reversal, deliberately bypassing the IncUse/DecUse
	// assertions: rollback must restore state even when the forward path's
	// invariants no longer hold).
	UndoFrameUseDelta
	// UndoFrameRevalidate sets descriptor Frame's Validated bit back to true.
	UndoFrameRevalidate
	// UndoTotPagesDelta adds Arg to Dom.TotPages.
	UndoTotPagesDelta
	// UndoMaptrackUnmap reverses a grant map: Dom.Maptrack.Unmap(Arg,
	// Dom.GrantTab) with Arg holding the map handle.
	UndoMaptrackUnmap
	// UndoMaptrackMap reverses a grant unmap: Dom.Maptrack.Map(Dom.GrantTab,
	// Arg) with Arg holding the grant ref.
	UndoMaptrackMap
)

// UndoRecord is one logged critical-variable write. Kind selects how the
// write is reversed; the Frame/Dom/Arg fields carry the target state.
// Frame is a descriptor index, not a pointer, so a rollback goes through
// the FrameTable API like any other write and is tracked as dirty.
type UndoRecord struct {
	Desc string
	Kind UndoKind

	// Undo is the UndoFunc reversal callback (nil for data-driven kinds).
	Undo func()

	Frame int
	Dom   *dom.Domain
	Arg   int
}

// apply performs the reversal against the frame table the call ran on.
func (r *UndoRecord) apply(frames *mm.FrameTable) {
	switch r.Kind {
	case UndoFunc:
		r.Undo()
	case UndoFrameUseDelta:
		frames.Frame(r.Frame).UseCount += r.Arg
	case UndoFrameRevalidate:
		frames.Frame(r.Frame).Validated = true
	case UndoTotPagesDelta:
		r.Dom.TotPages += r.Arg
	case UndoMaptrackUnmap:
		r.Dom.Maptrack.Unmap(grant.Handle(r.Arg), r.Dom.GrantTab)
	case UndoMaptrackMap:
		r.Dom.Maptrack.Map(r.Dom.GrantTab, r.Arg)
	}
}

// UndoLog holds the undo records of the call currently executing on one
// CPU. The mitigation protocol (§IV) is:
//
//   - During a hypercall, each critical write is logged just before it is
//     performed.
//   - If the hypercall completes, the log is discarded — nothing to undo.
//   - If recovery interrupts the hypercall, the records are applied in
//     reverse order *before* the hypercall is retried, so the retry starts
//     from consistent state instead of re-applying non-idempotent updates.
type UndoLog struct {
	records []UndoRecord

	// Writes counts records ever logged (overhead accounting/tests).
	Writes uint64
	// Rollbacks counts recovery-time rollbacks performed.
	Rollbacks uint64
}

// NewUndoLog returns an empty log.
func NewUndoLog() *UndoLog { return &UndoLog{} }

// Record appends a closure-based undo action.
func (u *UndoLog) Record(desc string, undo func()) {
	u.records = append(u.records, UndoRecord{Desc: desc, Kind: UndoFunc, Undo: undo})
	u.Writes++
}

// RecordData appends a data-driven undo record.
func (u *UndoLog) RecordData(r UndoRecord) {
	u.records = append(u.records, r)
	u.Writes++
}

// Len returns the number of pending records.
func (u *UndoLog) Len() int { return len(u.records) }

// Clear discards all records (call completed successfully). Capacity is
// kept: the log belongs to a per-CPU Env that lives for the whole run.
func (u *UndoLog) Clear() {
	for i := range u.records {
		u.records[i] = UndoRecord{}
	}
	u.records = u.records[:0]
}

// Rollback applies all records in reverse order, writing frame reversals
// to frames, and clears the log. Returns the number of records applied.
func (u *UndoLog) Rollback(frames *mm.FrameTable) int {
	n := len(u.records)
	for i := n - 1; i >= 0; i-- {
		u.records[i].apply(frames)
	}
	u.Clear()
	if n > 0 {
		u.Rollbacks++
	}
	return n
}

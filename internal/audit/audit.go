// Package audit implements the post-recovery invariant auditor and repair
// engine. After a recovery attempt's state repairs (and before the system
// resumes), the auditor walks the real simulated hypervisor structures —
// frame descriptors, heap free list and live objects, scheduler runqueues,
// the lock table, timer heaps, event-channel and grant-table linkage, and
// the domain list — and classifies every invariant violation it finds:
//
//   - Repaired: fixed in place, in the spirit of the paper's Table I
//     recovery enhancements (rewrite from a reliable source, or
//     re-initialize to a fixed valid value).
//   - Degraded: the damage is confined to one AppVM's state; the repair
//     sacrifices that VM (fails its guest) and the system keeps going.
//   - Escalate: the damage cannot be repaired or confined; the attempt
//     must fall through to the next ladder rung (or fail terminally).
//
// The auditor is deliberately deterministic: every walk iterates in a
// stable order (domain insertion order, sorted table owners, timer
// (CPU, name) order) and it consumes no random numbers, so enabling it
// never perturbs the simulation's random sequences — campaign summaries
// stay bit-identical at any parallelism.
package audit

import (
	"fmt"
	"sort"
	"time"

	"nilihype/internal/dom"
	"nilihype/internal/evtchn"
	"nilihype/internal/hv"
	"nilihype/internal/recdomain"
	"nilihype/internal/telemetry"
)

// Verdict classifies one violation's disposition.
type Verdict int

// Verdicts.
const (
	// Repaired: fixed in place; no guest-visible loss.
	Repaired Verdict = iota + 1
	// Degraded: repaired by sacrificing the affected AppVM.
	Degraded
	// Escalate: not repairable at this rung; the attempt must escalate.
	Escalate
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case Repaired:
		return "repaired"
	case Degraded:
		return "degraded"
	case Escalate:
		return "escalate"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Violation classes, one per audited structure family.
const (
	ClassDomainList    = "domain-list"
	ClassStaticScratch = "static-scratch"
	ClassHeapFreeList  = "heap-freelist"
	ClassHeapObject    = "heap-object"
	ClassFrames        = "pf-descriptor"
	ClassSched         = "sched-meta"
	ClassLocks         = "lock-table"
	ClassTimers        = "timer-heap"
	ClassEvtchn        = "evtchn-link"
	ClassGrant         = "grant-count"
	ClassIOAPIC        = "ioapic-route"
)

// Violation is one invariant violation the auditor found.
type Violation struct {
	Class   string
	Detail  string
	Verdict Verdict
}

// Report is the outcome of one audit pass.
type Report struct {
	Violations []Violation
	// Repaired counts Repaired verdicts; Escalations counts Escalate
	// verdicts. Degraded verdicts appear in Sacrificed.
	Repaired    int
	Escalations int
	// Sacrificed lists the domain IDs failed by degradation.
	Sacrificed []int
	// Timing is the recovery-domain latency accounting of the
	// partitioned walk (Options.RepairCPUs > 1); zero for the monolithic
	// walk.
	Timing recdomain.Timing
}

func (r *Report) add(class, detail string, v Verdict) {
	r.Violations = append(r.Violations, Violation{Class: class, Detail: detail, Verdict: v})
	switch v {
	case Repaired:
		r.Repaired++
	case Escalate:
		r.Escalations++
	}
}

// MustEscalate reports whether any violation requires escalation.
func (r *Report) MustEscalate() bool { return r.Escalations > 0 }

// Options tunes one audit pass.
type Options struct {
	// SkipFrames skips the page-frame descriptor walk — the engine sets
	// it when the attempt's EnhPFScan enhancement already performed (and
	// paid for) that scan.
	SkipFrames bool
	// SkipSched skips the scheduler-consistency walk, likewise for
	// EnhSchedRepair.
	SkipSched bool

	// RepairCPUs > 1 selects the recovery-domain-partitioned walk: the
	// audit is decomposed into per-CPU, per-guest-domain and global
	// units, independent units run concurrently, and Report.Timing
	// charges each phase as the max over parallel domains plus the
	// serialized global work on that many simulated CPUs. 0/1 keeps the
	// historical monolithic serial walk.
	RepairCPUs int
	// SerialExec executes the partitioned walk's units sequentially
	// while keeping the identical parallel latency model — the
	// equivalence suite's serial baseline. Reports are bit-identical
	// either way; only host-side goroutine use differs.
	SerialExec bool
	// FrameScanCost is the modeled cost of the partitioned walk's
	// page-frame unit (the engine computes it from memory size and scan
	// parallelism). Ignored by the monolithic walk, which derives the
	// cost in the engine.
	FrameScanCost time.Duration
}

// Run audits the paused hypervisor and repairs what it can. It must be
// called while recovery holds the system paused, after the attempt's own
// repair enhancements have run.
func Run(h *hv.Hypervisor, opts Options) *Report {
	if opts.RepairCPUs > 1 {
		return runPartitioned(h, opts)
	}
	r := &Report{}
	now := h.Clock.Now()
	doms := h.Domains.Preserved()

	// Domain list first: later walks want a traversable list.
	if err := h.Domains.CheckLinks(); err != nil {
		fixed := h.Domains.Rebuild()
		r.add(ClassDomainList, fmt.Sprintf("relinked from %d preserved structures (%d links fixed)", len(doms), fixed), Repaired)
	}

	// Static scratch: rewrite damaged words to the boot-time pattern.
	if damaged := h.StaticScratchDamage(); len(damaged) > 0 {
		for _, w := range damaged {
			r.add(ClassStaticScratch, fmt.Sprintf("scratch word %d does not match boot pattern", w), Repaired)
		}
		h.ReinitStaticScratch()
	}

	// Heap free list: the frame table is the reliable source; rebuild.
	if probs := h.Heap.ValidateFreeList(); len(probs) > 0 {
		for _, p := range probs {
			r.add(ClassHeapFreeList, p, Repaired)
		}
		h.Heap.Rebuild()
	}

	// Live heap objects: damage confined to an AppVM's struct domain is
	// degradable (re-initialize the object, sacrifice the VM); anything
	// else — PrivVM or a non-domain object — escalates, because both
	// mechanisms reuse live objects in place (§VII-A failure cause 3).
	for _, o := range h.Heap.DamagedObjects() {
		var owner *dom.Domain
		for _, d := range doms {
			if d.Obj == o {
				owner = d
				break
			}
		}
		if owner != nil && !owner.IsPriv {
			o.Repair()
			owner.Fail("heap object corrupted; VM sacrificed by recovery audit")
			r.Sacrificed = append(r.Sacrificed, owner.ID)
			r.add(ClassHeapObject, fmt.Sprintf("object %q re-initialized; d%d sacrificed", o.Tag, owner.ID), Degraded)
			continue
		}
		r.add(ClassHeapObject, fmt.Sprintf("object %q damaged and not confinable", o.Tag), Escalate)
	}

	// Page-frame descriptors (unless the PF-scan enhancement already ran).
	if !opts.SkipFrames {
		if h.Frames.InconsistentCount() > 0 {
			fixed := h.Frames.ScanAndRepair()
			r.add(ClassFrames, fmt.Sprintf("%d inconsistent descriptors rewritten", fixed), Repaired)
		}
	}

	// Scheduler metadata (unless the sched-repair enhancement already ran).
	if !opts.SkipSched {
		if incs := h.Sched.CheckConsistency(); len(incs) > 0 {
			fixed := h.Sched.RepairFromPerCPU()
			r.add(ClassSched, fmt.Sprintf("%d inconsistencies; %d fields rewritten from per-CPU state", len(incs), fixed), Repaired)
		}
	}

	// Lock table: every owner thread was discarded, so any held lock is a
	// leak. The basic ladder rungs may have released these already; the
	// audit is the backstop.
	for _, l := range h.Locks.HeldLocks() {
		l.ForceRelease()
		r.add(ClassLocks, fmt.Sprintf("%s lock %q held by discarded thread", l.Kind(), l.Name()), Repaired)
	}

	// Timer heaps: deadline bounds, heap order, and soft-tick liveness.
	if probs := h.Timers.CheckHealth(now); len(probs) > 0 {
		fixed := h.Timers.RepairHeaps(now)
		for _, p := range probs {
			r.add(ClassTimers, fmt.Sprintf("%s (clamped; %d deadlines fixed)", p, fixed), Repaired)
		}
	}
	if inactive := h.Timers.InactiveRecurring(); len(inactive) > 0 {
		sort.Slice(inactive, func(i, j int) bool {
			if inactive[i].CPU != inactive[j].CPU {
				return inactive[i].CPU < inactive[j].CPU
			}
			return inactive[i].Name < inactive[j].Name
		})
		names := make([]string, len(inactive))
		for i, t := range inactive {
			names[i] = t.Name
		}
		h.Timers.ReactivateRecurring(now)
		r.add(ClassTimers, fmt.Sprintf("%d recurring timers dead (%v); reactivated", len(inactive), names), Repaired)
	}

	auditIOAPIC(h, r)

	auditEvtchn(h, doms, r)
	auditGrants(h, doms, r)

	degraded := len(r.Violations) - r.Repaired - r.Escalations
	h.Tel.Inc(telemetry.CtrAuditRuns)
	h.Tel.Add(telemetry.CtrAuditViolations, uint64(len(r.Violations)))
	h.Tel.Add(telemetry.CtrAuditRepairs, uint64(r.Repaired))
	h.Tel.Add(telemetry.CtrAuditDegraded, uint64(degraded))
	h.Tel.Add(telemetry.CtrAuditEscalate, uint64(r.Escalations))
	return r
}

// auditIOAPIC compares the IO-APIC redirection table against the software
// copy recorded at boot and reprograms any diverged entry — the
// device-corruption repair. (A stranded in-service line is cleared by the
// attempt's interrupt-acknowledge mechanism, not here: the audit only
// touches route state it can check against a reliable source.)
func auditIOAPIC(h *hv.Hypervisor, r *Report) {
	io := h.Machine.IOAPIC()
	if n := io.RouteDamage(); n > 0 {
		fixed := io.ReprogramFromBoot()
		h.Tel.Inc(telemetry.CtrIOAPICRepairs)
		r.add(ClassIOAPIC, fmt.Sprintf("%d redirection entries diverged from boot routes; %d reprogrammed", n, fixed), Repaired)
	}
}

// auditEvtchn validates inter-domain event-channel linkage in two passes.
// Pass 1 repairs damaged ports from the surviving half of the link: a port
// whose peer field is garbled is found via whichever port still points at
// it, and rewritten. The close decision waits for pass 2 — a broken port
// may be the intact half of a pair whose other half pass 1 has yet to
// repair, and closing it first would destroy the only reliable source.
// Pass 2 closes ports that are still broken; losing an I/O ring channel
// this way is fatal to the owning AppVM, which is sacrificed.
func auditEvtchn(h *hv.Hypervisor, doms []*dom.Domain, r *Report) {
	domByID := make(map[int]*dom.Domain, len(doms))
	for _, d := range doms {
		domByID[d.ID] = d
	}
	for _, o := range h.Broker.Owners() {
		t := h.Broker.Table(o)
		for p := 1; p < t.Len(); p++ {
			port, _ := t.Port(p)
			if port.State != evtchn.Interdomain || linkIntact(h, o, p, port) {
				continue
			}
			if qd, q, ok := h.Broker.FindBacklink(o, p); ok {
				port.RemoteDom, port.RemotePort = qd, q
				r.add(ClassEvtchn, fmt.Sprintf("d%d port %d relinked to d%d port %d via backlink", o, p, qd, q), Repaired)
			}
		}
	}
	for _, o := range h.Broker.Owners() {
		t := h.Broker.Table(o)
		for p := 1; p < t.Len(); p++ {
			port, _ := t.Port(p)
			if port.State != evtchn.Interdomain || linkIntact(h, o, p, port) {
				continue
			}
			_ = t.Close(p)
			d := domByID[o]
			if d != nil && !d.IsPriv && d.RingPort == p {
				d.Fail("I/O ring event channel lost; VM sacrificed by recovery audit")
				r.Sacrificed = append(r.Sacrificed, d.ID)
				r.add(ClassEvtchn, fmt.Sprintf("d%d ring port %d unrecoverable; closed, d%d sacrificed", o, p, d.ID), Degraded)
				continue
			}
			r.add(ClassEvtchn, fmt.Sprintf("d%d port %d unrecoverable; closed", o, p), Repaired)
		}
	}
}

// linkIntact reports whether an Interdomain port's peer exists and links
// back.
func linkIntact(h *hv.Hypervisor, owner, p int, port *evtchn.Port) bool {
	rt := h.Broker.Table(port.RemoteDom)
	if rt == nil {
		return false
	}
	rp, err := rt.Port(port.RemotePort)
	if err != nil {
		return false
	}
	return rp.State == evtchn.Interdomain && rp.RemoteDom == owner && rp.RemotePort == p
}

// auditGrants recomputes every grant entry's mapping count from the
// maptrack tables (the hypervisor-side reliable source) and rewrites any
// entry that disagrees.
func auditGrants(h *hv.Hypervisor, doms []*dom.Domain, r *Report) {
	type key struct{ dom, ref int }
	expected := make(map[key]int)
	for _, d := range doms {
		if d.Maptrack == nil {
			continue
		}
		for _, mp := range d.Maptrack.Mappings() {
			expected[key{mp.GranterDom, mp.Ref}]++
		}
	}
	for _, d := range doms {
		if d.GrantTab == nil {
			continue
		}
		for ref := 0; ref < d.GrantTab.Len(); ref++ {
			e, err := d.GrantTab.Entry(ref)
			if err != nil {
				continue
			}
			want := expected[key{d.ID, ref}]
			if e.MapCount != want {
				r.add(ClassGrant, fmt.Sprintf("d%d grant ref %d map count %d, maptrack says %d; rewritten", d.ID, ref, e.MapCount, want), Repaired)
				e.MapCount = want
			}
		}
	}
}

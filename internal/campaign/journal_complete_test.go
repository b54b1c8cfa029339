package campaign

import (
	"fmt"
	"testing"
	"time"

	"nilihype/internal/core"
	"nilihype/internal/inject"
	"nilihype/internal/journal"
	"nilihype/internal/telemetry"
)

// TestJournalRecordsWholeRecoveryStory guards the journal's role as the
// only recorder of the recovery story: the flight ring carries no detect,
// attempt, audit or escalate events, so a beat the journal misses is lost.
// Over adversarial hybrid+audit runs and 3AppVM full-ladder runs (seeds
// 1–30 for every configuration, fixed in advance), each run's journal must
// hold one attempt per Result.Attempts, one escalate per rung climbed, one
// audit per audit pass, one detect per detector firing, a detect before
// every attempt, and end in the disposition.
func TestJournalRecordsWholeRecoveryStory(t *testing.T) {
	adversarial := func(ft inject.FaultType) RunConfig {
		rc := RunConfig{
			Setup: OneAppVM, Fault: ft, Logging: true,
			Recovery:      core.HybridConfig(),
			BenchDuration: 2 * time.Second,
			BurstWindow:   100 * time.Millisecond, BurstFault: inject.Register,
			FaultDuringRecovery: true,
		}
		rc.Recovery.Escalation.Audit = true
		return rc
	}
	fullLadder := func(ft inject.FaultType) RunConfig {
		return RunConfig{
			Setup: ThreeAppVM, Fault: ft, Logging: true,
			Recovery:      core.FullLadderConfig(),
			BenchDuration: 2 * time.Second,
		}
	}
	configs := []RunConfig{
		adversarial(inject.Failstop), adversarial(inject.Code),
		fullLadder(inject.PrivVMHang), fullLadder(inject.DeviceIOAPIC), fullLadder(inject.Register),
	}
	var attempts, escalations, audits int
	for _, base := range configs {
		for seed := uint64(1); seed <= 30; seed++ {
			rc := base
			rc.Seed = seed
			r, tel, entries := TraceRun(rc)
			if tel == nil {
				t.Fatalf("%v seed %d: boot failed: %s", rc.Fault, seed, r.FailReason)
			}
			checkJournalStory(t, rc, r, tel, entries)
			attempts += r.Attempts
			escalations += countKind(entries, "escalate")
			audits += countKind(entries, "audit")
		}
	}
	t.Logf("%d attempts, %d escalations, %d audits", attempts, escalations, audits)
	// The sample must exercise every beat, or the checks above are vacuous.
	if attempts == 0 || escalations == 0 || audits == 0 {
		t.Fatalf("sample too tame: %d attempts, %d escalations, %d audits", attempts, escalations, audits)
	}
}

func checkJournalStory(t *testing.T, rc RunConfig, r Result, tel *telemetry.Telemetry, entries []journal.Entry) {
	t.Helper()
	where := func() string { return fmt.Sprintf("%s/%d-rung", rc.FaultClass(), rc.Recovery.MaxAttempts()) }
	if got := countKind(entries, "attempt"); got != r.Attempts {
		t.Errorf("%s seed %d: %d attempt entries, Result.Attempts = %d", where(), rc.Seed, got, r.Attempts)
	}
	if got, want := countKind(entries, "escalate"), max(r.Attempts-1, 0); got != want {
		t.Errorf("%s seed %d: %d escalate entries for %d attempts", where(), rc.Seed, got, r.Attempts)
	}
	if got, want := uint64(countKind(entries, "audit")), tel.Counters[telemetry.CtrAuditRuns]; got != want {
		t.Errorf("%s seed %d: %d audit entries, %d audit passes", where(), rc.Seed, got, want)
	}
	if got, want := uint64(countKind(entries, "detect")), tel.Counters[telemetry.CtrDetections]; got != want {
		t.Errorf("%s seed %d: %d detect entries, %d detector firings", where(), rc.Seed, got, want)
	}
	sawDetect := false
	for _, e := range entries {
		switch e.Kind {
		case "detect":
			sawDetect = true
		case "attempt":
			if !sawDetect {
				t.Errorf("%s seed %d: attempt #%d has no detect before it", where(), rc.Seed, e.Seq)
			}
		}
	}
	if n := len(entries); n == 0 || entries[n-1].Kind != "disposition" {
		t.Errorf("%s seed %d: journal does not end in a disposition", where(), rc.Seed)
	}
}

func countKind(entries []journal.Entry, kind string) int {
	n := 0
	for _, e := range entries {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"nilihype/internal/core"
	"nilihype/internal/inject"
)

// TestParseMechanismAndFault checks that every fault and mechanism name
// the flags advertise reaches the run configuration — including the
// IO-APIC, PrivVM fault classes and the PrivVM-restart rung — and that
// unknown names are rejected.
func TestParseMechanismAndFault(t *testing.T) {
	for _, name := range strings.Split(faultNames, " | ") {
		want, err := inject.ParseFaultType(name)
		if err != nil {
			t.Fatalf("-fault advertises %q, which does not resolve: %v", name, err)
		}
		rc, err := buildRunConfig(options{Fault: name, Mechanism: "nilihype"})
		if err != nil || rc.Fault != want {
			t.Fatalf("buildRunConfig(-fault %s) = %v, %v", name, rc.Fault, err)
		}
	}
	for _, name := range strings.Split(mechanismNames, " | ") {
		want, err := core.ParseMechanism(name)
		if err != nil {
			t.Fatalf("-mechanism advertises %q, which does not resolve: %v", name, err)
		}
		rc, err := buildRunConfig(options{Fault: "code", Mechanism: name})
		if err != nil || rc.Recovery.Mechanism != want {
			t.Fatalf("buildRunConfig(-mechanism %s) = %v, %v", name, rc.Recovery.Mechanism, err)
		}
	}
	if _, err := buildRunConfig(options{Fault: "code", Mechanism: "bogus"}); err == nil {
		t.Fatal("buildRunConfig accepted mechanism bogus")
	}
	if _, err := buildRunConfig(options{Fault: "cosmic", Mechanism: "nilihype"}); err == nil {
		t.Fatal("buildRunConfig accepted fault cosmic")
	}
}

func TestBuildRunConfigAdversarial(t *testing.T) {
	rc, err := buildRunConfig(options{Seed: 5, Fault: "code", Mechanism: "nilihype",
		Adversarial: true, FlightCap: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if rc.Recovery.MaxAttempts() <= 1 || !rc.Recovery.Escalation.Audit {
		t.Fatalf("adversarial config lacks ladder/audit: %+v", rc.Recovery)
	}
	if rc.BurstWindow == 0 || !rc.FaultDuringRecovery {
		t.Fatalf("adversarial config lacks burst/during-recovery: %+v", rc)
	}
	if rc.FlightRecorderCapacity != 1024 {
		t.Fatalf("flight capacity not threaded: %d", rc.FlightRecorderCapacity)
	}
}

// chromeDoc mirrors the trace_event JSON shape for the assertions below.
type chromeDoc struct {
	TraceEvents []struct {
		Name  string  `json:"name"`
		Phase string  `json:"ph"`
		TS    float64 `json:"ts"`
		Dur   float64 `json:"dur"`
		PID   int     `json:"pid"`
		TID   int     `json:"tid"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// TestFailedAdversarialRunRendersChromeTrace is the tool's acceptance bar:
// scan for an adversarial run that fails or escalates and verify its
// rendering is valid Chrome trace JSON carrying the injection marker, the
// detection event, and recovery-phase spans.
func TestFailedAdversarialRunRendersChromeTrace(t *testing.T) {
	o := options{Seed: 1, Fault: "code", Mechanism: "nilihype", Adversarial: true,
		Format: "chrome", FlightCap: 4096, FindFailed: 64}
	var out, diag bytes.Buffer
	if err := render(o, &out, &diag); err != nil {
		t.Fatalf("render: %v", err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	var injects, detects, spans int
	for _, e := range doc.TraceEvents {
		switch {
		case strings.HasPrefix(e.Name, "inject:"):
			injects++
		case strings.HasPrefix(e.Name, "detect:"):
			detects++
		case e.Phase == "X":
			spans++
			if e.Dur < 0 {
				t.Fatalf("span %q has negative duration", e.Name)
			}
		}
	}
	if injects == 0 || detects == 0 || spans == 0 {
		t.Fatalf("trace missing markers: injects=%d detects=%d phase spans=%d\n%s",
			injects, detects, spans, diag.String())
	}
	if !strings.Contains(diag.String(), "seed") {
		t.Fatalf("diagnostic line missing: %q", diag.String())
	}
}

func TestTextFormatIncludesTimelineAndMetrics(t *testing.T) {
	o := options{Seed: 1, Fault: "failstop", Mechanism: "nilihype",
		Format: "text", FlightCap: 1024}
	var out, diag bytes.Buffer
	if err := render(o, &out, &diag); err != nil {
		t.Fatalf("render: %v", err)
	}
	s := out.String()
	for _, want := range []string{"inject", "detect", "hv.dispatches", "recovery.attempt_latency_us"} {
		if !strings.Contains(s, want) {
			t.Fatalf("text output missing %q:\n%s", want, s)
		}
	}
}

func TestRenderRejectsUnknownFormat(t *testing.T) {
	var out, diag bytes.Buffer
	err := render(options{Fault: "failstop", Mechanism: "nilihype", Format: "svg"}, &out, &diag)
	if err == nil || !strings.Contains(err.Error(), "unknown format") {
		t.Fatalf("err = %v", err)
	}
}

// TestIOAPICRunRendersText renders an IO-APIC fault run: the injection
// reaches the flight timeline and the fault, detection and disposition
// reach the journal.
func TestIOAPICRunRendersText(t *testing.T) {
	o := options{Seed: 3, Fault: "ioapic", Mechanism: "nilihype", Format: "text", FlightCap: 1024}
	var out, diag bytes.Buffer
	if err := render(o, &out, &diag); err != nil {
		t.Fatalf("render: %v", err)
	}
	s := out.String()
	for _, want := range []string{"inject", "recovery journal:", "IO-APIC (primary)", "irq-delivery", "disposition"} {
		if !strings.Contains(s, want) {
			t.Fatalf("IO-APIC text output missing %q:\n%s", want, s)
		}
	}
}

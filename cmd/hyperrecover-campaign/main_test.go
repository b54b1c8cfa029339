package main

import (
	"strings"
	"testing"

	"nilihype/internal/campaign"
	"nilihype/internal/core"
	"nilihype/internal/guest"
	"nilihype/internal/inject"
)

// TestParseMechanism checks that every name the -mechanism flag
// advertises resolves the way run() resolves it: a ladder preset first,
// then a single mechanism.
func TestParseMechanism(t *testing.T) {
	for _, name := range strings.Split(mechanismNames, " | ") {
		if _, ok := parseLadder(name); ok {
			continue
		}
		if _, err := core.ParseMechanism(name); err != nil {
			t.Errorf("-mechanism advertises %q, which does not resolve: %v", name, err)
		}
	}
	if got, ok := parseLadder("FULL-LADDER"); !ok || got.MaxAttempts() != core.FullLadderConfig().MaxAttempts() {
		t.Errorf("parseLadder(FULL-LADDER) = %+v, %v", got, ok)
	}
	if _, ok := parseLadder("nilihype"); ok {
		t.Error("parseLadder claimed a single mechanism")
	}
}

// TestParseFault checks that every name the -fault flag advertises
// resolves to a distinct fault type.
func TestParseFault(t *testing.T) {
	seen := map[inject.FaultType]string{}
	for _, name := range strings.Split(faultNames, " | ") {
		ft, err := inject.ParseFaultType(name)
		if err != nil {
			t.Errorf("-fault advertises %q, which does not resolve: %v", name, err)
			continue
		}
		if prev, dup := seen[ft]; dup {
			t.Errorf("-fault names %q and %q both resolve to %v", prev, name, ft)
		}
		seen[ft] = name
	}
}

func TestParseSetupAndWorkload(t *testing.T) {
	if s, err := parseSetup("1appvm"); err != nil || s != campaign.OneAppVM {
		t.Errorf("parseSetup = %v, %v", s, err)
	}
	if s, err := parseSetup("3APPVM"); err != nil || s != campaign.ThreeAppVM {
		t.Errorf("parseSetup = %v, %v", s, err)
	}
	if _, err := parseSetup("5appvm"); err == nil {
		t.Error("parseSetup accepted junk")
	}
	for in, want := range map[string]guest.Kind{
		"blkbench": guest.BlkBench, "unixbench": guest.UnixBench, "netbench": guest.NetBench,
	} {
		if got, err := parseWorkload(in); err != nil || got != want {
			t.Errorf("parseWorkload(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseWorkload("webbench"); err == nil {
		t.Error("parseWorkload accepted junk")
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]+$`)
)

// shortOptions is a run small enough for a unit test: one measured batch
// of eight runs (two per fault class on the mixed workload).
func shortOptions(seed uint64) options {
	return options{seed: seed, runs: 8, minBatches: 1}
}

type contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// loadContract reads the repository's BENCHMARK.json and maps each listed
// metric to its unit.
func loadContract(t *testing.T) (contract, map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	units := make(map[string]string)
	for _, m := range c.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range c.PerLayer {
		units[m.Name] = m.Unit
	}
	return c, units
}

func TestContractListsTheBenchmarkMetrics(t *testing.T) {
	c, _ := loadContract(t)
	var e2e, layers []string
	for _, m := range c.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range c.PerLayer {
		layers = append(layers, m.Name)
	}
	if !reflect.DeepEqual(e2e, e2eKeys) {
		t.Errorf("BENCHMARK.json end_to_end = %v, benchmark prints %v", e2e, e2eKeys)
	}
	if !reflect.DeepEqual(layers, layerKeys) {
		t.Errorf("BENCHMARK.json per_layer = %v, benchmark prints %v", layers, layerKeys)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d = %+v, want %s: %s", i, c.Workloads[i], w.name, w.why)
		}
	}
}

func TestShortRunEachWorkload(t *testing.T) {
	_, units := loadContract(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name + "/end-to-end"
			if trace {
				name = w.name + "/per-layer"
			}
			t.Run(name, func(t *testing.T) {
				var r *report
				if trace {
					r = measureLayers(w, shortOptions(7))
				} else {
					r = measureEndToEnd(w, shortOptions(7))
				}
				for _, m := range r.metrics {
					if !nameRE.MatchString(m.Name) || len(m.Name) > 64 {
						t.Errorf("metric name %q", m.Name)
					}
					if !unitRE.MatchString(m.Unit) || len(m.Unit) > 16 {
						t.Errorf("metric %s: unit %q", m.Name, m.Unit)
					}
				}
				var buf bytes.Buffer
				if err := r.write(&buf); err != nil {
					t.Fatal(err)
				}
				if !r.correct() {
					t.Fatalf("checks failed: %v\n%s", r.failures, buf.String())
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var res jsonResult
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the JSON result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("result = %+v", res)
				}
				if len(res.Metrics) != len(r.keys()) {
					t.Errorf("JSON has %d metrics, want %d", len(res.Metrics), len(r.keys()))
				}
				for _, k := range r.keys() {
					m, ok := res.Metrics[k]
					if !ok || math.IsNaN(m.Value) || m.Unit != units[k] {
						t.Errorf("JSON metric %s = %+v, want unit %q", k, m, units[k])
					}
				}
			})
		}
	}
}

func simValues(r *report) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range r.metrics {
		if strings.HasPrefix(m.Name, "sim_") {
			out[m.Name] = m.Value
		}
	}
	return out
}

func TestSeedDeterminesSimulatedResults(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := measureEndToEnd(w, shortOptions(3))
			b := measureEndToEnd(w, shortOptions(3))
			c := measureEndToEnd(w, shortOptions(4))
			for _, r := range []*report{a, b, c} {
				if !r.correct() {
					t.Fatalf("seed run failed its checks: %v", r.failures)
				}
			}
			if !reflect.DeepEqual(a.ref, b.ref) {
				t.Error("the same seed gave different Summaries")
			}
			if sa, sb := simValues(a), simValues(b); len(sa) < 2 || !reflect.DeepEqual(sa, sb) {
				t.Errorf("the same seed gave sim metrics %v and %v", sa, sb)
			}
			if reflect.DeepEqual(a.ref, c.ref) {
				t.Error("different seeds gave the same Summary")
			}
		})
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "unixbench-failstop", "--seconds", "0"},
		{"--workload", "unixbench-failstop", "--trace", "2"},
		{"--workload", "unixbench-failstop", "--seed", "-1"},
		{"--workload", "unixbench-failstop", "extra"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want 2 and no output", args, code, out.String())
		}
	}
}

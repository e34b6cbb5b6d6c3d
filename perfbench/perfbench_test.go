package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// bench spawns a child run.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := childMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func testConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var pinned map[string]verdict
	if err := json.Unmarshal(expectedJSON, &pinned); err != nil {
		t.Fatal(err)
	}
	return config{workload: workload, seed: 7, seconds: 1, trace: trace, exe: exe, pinned: pinned}
}

var legalName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricsEmitted runs the small versions of the benchmark's
// workloads in both modes and checks that each mode emits exactly the
// metrics BENCHMARK.json lists for it, with legal names and the listed
// units, and that every run passes its verdict check.
func TestMetricsEmitted(t *testing.T) {
	s := loadSpec(t)
	modes := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range s.EndToEnd {
		modes[false][m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		modes[true][m.Name] = m.Unit
	}
	for _, w := range []string{"smoke-screen-s1", "smoke-shared2-sym", "smoke-fuzz-full"} {
		for trace, want := range modes {
			res, err := bench(testConfig(t, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", w, trace, name)
				case got.Unit != unit:
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", w, trace, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if !legalName.MatchString(name) {
					t.Errorf("illegal metric name %q", name)
				}
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s emitted but not in BENCHMARK.json", w, trace, name)
				}
			}
		}
	}
}

// TestWrongVerdictFails pins a wrong state count and a wrong violation
// set and checks that every run is then reported as failed.
func TestWrongVerdictFails(t *testing.T) {
	const w = "smoke-screen-s1"
	for _, corrupt := range []func(*verdict){
		func(v *verdict) { v.States++ },
		func(v *verdict) { v.Violations = v.Violations[1:] },
	} {
		cfg := testConfig(t, w, false)
		v := cfg.pinned[w]
		v.Violations = append([]string(nil), v.Violations...)
		corrupt(&v)
		cfg.pinned[w] = v
		res, err := bench(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Attempted < 1 || res.Failed != res.Attempted {
			t.Errorf("wrong pinned verdict: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
		}
	}
}

// TestSpecCoverage checks that every workload BENCHMARK.json names
// exists, and that predictions.json gives a reason for each workload and
// a prediction for each per-layer metric.
func TestSpecCoverage(t *testing.T) {
	s := loadSpec(t)
	data, err := os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var p struct {
		Workloads   map[string]struct{ Why string }
		Predictions []struct {
			Layer []string
			Moves []struct {
				Metric string
				On     []string
			}
		}
	}
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, w := range s.Workloads {
		names[w.Name] = true
		if _, err := lookup(w.Name); err != nil {
			t.Error(err)
		}
		if p.Workloads[w.Name].Why == "" {
			t.Errorf("predictions.json: no reason for workload %s", w.Name)
		}
	}
	predicted := map[string]bool{}
	for _, e := range p.Predictions {
		for _, l := range e.Layer {
			predicted[l] = true
		}
		for _, m := range e.Moves {
			for _, w := range m.On {
				if !names[w] {
					t.Errorf("predictions.json: unknown workload %s", w)
				}
			}
		}
	}
	for _, m := range s.PerLayer {
		if !predicted[m.Name] {
			t.Errorf("predictions.json: no prediction for %s", m.Name)
		}
	}
}

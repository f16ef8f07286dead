package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The driver's limits on BENCHMARK.json, from the benchmark contract.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("key %q missing", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("%d top-level keys, want exactly 6", len(keys))
	}
	var full struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(raw, &full); err != nil {
		t.Fatal(err)
	}
	if len(full.Paths) != 1 || full.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", full.Paths)
	}
	for _, arg := range full.Command[1:] {
		if !strings.HasPrefix(arg, "bench/") {
			t.Errorf("command names %q, outside paths", arg)
		}
	}

	b, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	// Every run is a set-up (three on untraced runs) plus the timed phase;
	// the driver makes 4 + 22×workloads of them in 3420 s, two builds included.
	runs := 4 + 22*len(b.Workloads)
	if b.RunSeconds < 1 || b.RunSeconds > 60 || runs*(b.RunSeconds+12)+240 > 3420 {
		t.Errorf("run_seconds %d: %d runs do not fit 3420 s", b.RunSeconds, runs)
	}

	var listed []workload
	for _, w := range workloads {
		if !w.extra {
			listed = append(listed, w)
		}
	}
	if len(full.Workloads) != len(listed) {
		t.Fatalf("%d workloads declared, program has %d that are not extra", len(full.Workloads), len(listed))
	}
	for i, w := range full.Workloads {
		if w.Name != listed[i].name {
			t.Errorf("workload %d is %q, program has %q", i, w.Name, listed[i].name)
		}
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
	}

	check := func(kind string, declared []benchmarkMetric, program []decl, limit int) {
		if len(declared) > limit || len(declared) == 0 {
			t.Errorf("%s: %d metrics, limit %d", kind, len(declared), limit)
		}
		want := map[string]string{}
		for _, d := range program {
			want[d.name] = d.unit
		}
		seen := map[string]bool{}
		for _, m := range declared {
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s %q unit %q: outside the allowed characters", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %q: better=%q", kind, m.Name, m.Better)
			}
			if unit, ok := want[m.Name]; !ok {
				t.Errorf("%s %q is declared but the program does not print it", kind, m.Name)
			} else if unit != m.Unit {
				t.Errorf("%s %q: unit %q declared, %q printed", kind, m.Name, m.Unit, unit)
			}
			if seen[m.Name] {
				t.Errorf("%s %q declared twice", kind, m.Name)
			}
			seen[m.Name] = true
		}
		for _, d := range program {
			if !seen[d.name] {
				t.Errorf("%s %q is printed but not declared", kind, d.name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, 16)
	check("per_layer", b.PerLayer, perLayer, 128)

	setup := false
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range b.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per_layer %q has a bound", m.Name)
		}
	}
	used := map[string]bool{}
	for _, d := range append(append([]decl{}, endToEnd...), perLayer...) {
		if used[d.name] {
			t.Errorf("metric %q is used twice", d.name)
		}
		used[d.name] = true
	}
}

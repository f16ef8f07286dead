package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestQuickSmoke runs every workload, untraced and traced, at -quick
// size: every output check passes, no operation fails, and the metrics
// printed are exactly the declared ones.
func TestQuickSmoke(t *testing.T) {
	start := time.Now()
	// Relative, like a real run's: socket paths must stay short.
	dir := filepath.Join(runRoot, fmt.Sprint("test", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	calib, err := newCalibrator(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer calib.close()
	for _, w := range workloads {
		for _, mode := range []struct {
			name  string
			run   func(workload, *options) (result, *report, error)
			decls []decl
		}{{"end_to_end", runEndToEnd, endToEnd}, {"traced", runTraced, perLayer}} {
			t.Run(w.name+"/"+mode.name, func(t *testing.T) {
				o := &options{
					seed: 1, scenarioSeed: scenarioSeed, quick: true, timed: 400 * time.Millisecond,
					runDir: dir, spansPath: filepath.Join(dir, "spans.json"), calib: calib, ref: w.ref,
				}
				res, _, err := mode.run(w, o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(mode.decls) {
					t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(mode.decls))
				}
				for _, d := range mode.decls {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("%s: printed=%v unit %q, want %q", d.name, ok, m.Unit, d.unit)
					}
					if mode.name == "end_to_end" && m.Value <= 0 {
						t.Errorf("%s = %v: an end-to-end metric is never 0", d.name, m.Value)
					}
				}
				if mode.name == "traced" {
					if c := res.Metrics["trace.cycle_coverage"].Value; c < 0.9 || c > 1 {
						t.Errorf("trace coverage %v", c)
					}
					if _, err := os.Stat(o.spansPath); err != nil {
						t.Errorf("span file: %v", err)
					}
				}
			})
		}
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("smoke took %v, budget 10 s", took)
	}
}

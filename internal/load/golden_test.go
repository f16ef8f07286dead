package load

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"convgpu/internal/policy"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this binary's output")

// TestGoldenQuickSweep pins the in-process report of convgpu-load's
// -quick scenario — 160 bursty arrivals, all seven wake policies, loads
// x1 and x4 on four devices — byte for byte across commits.
// TestRunInProcessDeterministic compares a binary with itself; this
// fails on any change to a scheduling outcome, and is regenerated (on
// purpose, with -update) only when one is intended.
func TestGoldenQuickSweep(t *testing.T) {
	scn := Scenario{
		Name:        "quick",
		Containers:  160,
		Seed:        20260808,
		Arrival:     ArrivalBursty,
		MeanSpacing: 2 * time.Second,
	}
	var pairs []PolicyPair
	for _, w := range policy.WakeNames() {
		pairs = append(pairs, PolicyPair{Wake: w, Place: "leastloaded"})
	}
	sec, err := RunInProcessSweep(context.Background(), scn, pairs, []float64{1, 4}, Config{Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewReport(scn, 4, sec).JSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "quick_inprocess.golden.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		line := 0
		for line < len(g) && line < len(w) && bytes.Equal(g[line], w[line]) {
			line++
		}
		t.Fatalf("quick in-process report differs from %s from line %d on (regenerate with -update only if the scheduling change is intended)", path, line+1)
	}
}

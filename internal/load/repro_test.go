package load

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var (
	reproFresh     = flag.String("load.fresh", "", "a BENCH_load.json just written by `convgpu-load -path inprocess` (make load-repro)")
	reproCommitted = flag.String("load.committed", "", "the committed BENCH_load.json the fresh one must reproduce")
)

// inprocessSection returns the file's deterministic section, rendered
// the way Report.JSON renders it.
func inprocessSection(t *testing.T, path string) (Section, []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ParseReport(raw)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	rep.SortRuns()
	for _, sec := range rep.Sections {
		if sec.Path == "inprocess" {
			b, err := json.MarshalIndent(sec, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			return sec, b
		}
	}
	t.Fatalf("%s has no inprocess section", path)
	return Section{}, nil
}

// TestLoadRepro is the gate behind `make load-repro`: the same seed must
// reproduce the committed artifact's in-process section byte for byte.
// The target regenerates the section with the command's own defaults and
// hands both files over; a plain `go test` skips.
func TestLoadRepro(t *testing.T) {
	if *reproFresh == "" || *reproCommitted == "" {
		t.Skip("run through `make load-repro`, which passes -load.fresh and -load.committed")
	}
	fresh, freshJSON := inprocessSection(t, *reproFresh)
	committed, committedJSON := inprocessSection(t, *reproCommitted)
	if bytes.Equal(freshJSON, committedJSON) {
		t.Logf("%d of %d in-process cells reproduce %s", len(fresh.Runs), len(committed.Runs), *reproCommitted)
		return
	}
	if len(fresh.Runs) != len(committed.Runs) {
		t.Fatalf("fresh run has %d in-process cells, the committed artifact %d", len(fresh.Runs), len(committed.Runs))
	}
	for i := range fresh.Runs {
		f, _ := json.Marshal(fresh.Runs[i])
		c, _ := json.Marshal(committed.Runs[i])
		if !bytes.Equal(f, c) {
			t.Errorf("cell %s/%s@%g differs:\n fresh     %s\n committed %s",
				committed.Runs[i].Wake, committed.Runs[i].Place, committed.Runs[i].LoadX, f, c)
		}
	}
	t.Fatalf("the in-process section no longer reproduces %s: a scheduling outcome changed (regenerate with `make bench-load` only if that is intended)", *reproCommitted)
}

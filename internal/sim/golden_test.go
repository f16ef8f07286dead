package sim

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"convgpu/internal/bytesize"
	"convgpu/internal/clock"
	"convgpu/internal/cluster"
	"convgpu/internal/core"
	"convgpu/internal/metrics"
	"convgpu/internal/multigpu"
	"convgpu/internal/policy"
	"convgpu/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this binary's output")

// checkGolden compares got with testdata/<name>. The goldens pin
// scheduling outcomes across commits (TestRunDeterministic only compares
// a binary with itself): they change only when a scheduling decision
// changes, and then on purpose, with -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Fatalf("%s differs from the committed golden (regenerate with -update only if the scheduling change is intended)\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenSweep pins the Fig. 7/8 sweep at the low, middle and high
// end of the paper's container counts: the rendered tables plus every
// cell to the nanosecond.
func TestGoldenSweep(t *testing.T) {
	s := DefaultSweep()
	s.Counts = []int{4, 20, 38}
	s.Reps = 2
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tab := range []*metrics.Table{res.FinishTable(), res.SuspendTable(), res.UtilizationTable()} {
		if err := tab.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	for _, alg := range s.Algorithms {
		for _, n := range s.Counts {
			c := res.Cells[alg][n]
			fmt.Fprintf(&buf, "%s n=%d finish=%d suspended=%d utilization=%.9f stalls=%d\n",
				alg, n, c.FinishTime, c.AvgSuspended, c.Utilization, c.Stalls)
		}
	}
	checkGolden(t, "sweep.golden", buf.Bytes())
}

// renderResult prints one run to the nanosecond, container by container.
func renderResult(res Result) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "finish=%d avg_suspended=%d max_suspended=%d suspended_count=%d utilization=%.9f stalled=%v\n",
		res.FinishTime, res.AvgSuspended, res.MaxSuspended, res.SuspendedCount, res.AvgUtilization, res.Stalled)
	for _, c := range res.Containers {
		fmt.Fprintf(&buf, "%s arrival=%d finished=%d suspended=%d completed=%v\n",
			c.ID, c.Arrival, c.Finished, c.Suspended, c.Completed)
	}
	return buf.Bytes()
}

// TestGoldenMultiGPU pins one RunWith over a 2-device backend, where
// container IDs also decide placement order.
func TestGoldenMultiGPU(t *testing.T) {
	clk := clock.NewManual()
	st, err := policy.NewScheduler(policy.Spec{
		Devices:  2,
		Capacity: 5 * bytesize.GiB,
		Wake:     core.AlgBestFit,
		Place:    multigpu.PolicyLeastLoaded,
		Device:   core.Config{Clock: clk},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWith(workload.GenerateTrace(24, workload.DefaultSpacing, 77), st, clk, Config{Capacity: 10 * bytesize.GiB})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "multigpu.golden", renderResult(res))
}

// TestGoldenCluster pins one RunWith over a 2-node x 1-GPU cluster.
func TestGoldenCluster(t *testing.T) {
	clk := clock.NewManual()
	cl, err := policy.NewScheduler(policy.Spec{
		Nodes:    2,
		Capacity: 5 * bytesize.GiB,
		Wake:     core.AlgBestFit,
		Strategy: cluster.StrategySpread,
		Device:   core.Config{Clock: clk},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWith(workload.GenerateTrace(24, workload.DefaultSpacing, 55), cl, clk, Config{Capacity: 10 * bytesize.GiB})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cluster.golden", renderResult(res))
}

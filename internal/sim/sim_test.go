package sim

import (
	"reflect"
	"testing"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/clock"
	"convgpu/internal/core"
	"convgpu/internal/policy"
	"convgpu/internal/workload"
)

func singleTrace(typeName string) []workload.TraceEntry {
	ct, err := workload.TypeByName(typeName)
	if err != nil {
		panic(err)
	}
	return []workload.TraceEntry{{Seq: 0, Type: ct, Arrival: 0}}
}

func TestRunSingleContainer(t *testing.T) {
	res, err := Run(singleTrace("nano"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Containers) != 1 || !res.Containers[0].Completed {
		t.Fatalf("result = %+v", res)
	}
	// nano: 100ms startup + 5s kernel + 2 copies of 62 MiB at 6 GiB/s
	// (~20 ms). FinishTime a touch above 5.1s.
	if res.FinishTime < 5*time.Second || res.FinishTime > 6*time.Second {
		t.Fatalf("FinishTime = %v, want ~5.1s", res.FinishTime)
	}
	if res.AvgSuspended != 0 || res.SuspendedCount != 0 {
		t.Fatalf("uncontended run had suspensions: %+v", res)
	}
	if res.Stalled {
		t.Fatal("single container stalled")
	}
}

func TestRunUncontendedManySmall(t *testing.T) {
	// Ten nanos spaced 5s apart never contend on a 5 GiB GPU: no
	// suspensions; finish = last arrival + runtime.
	trace := make([]workload.TraceEntry, 10)
	ct, _ := workload.TypeByName("nano")
	for i := range trace {
		trace[i] = workload.TraceEntry{Seq: i, Type: ct, Arrival: time.Duration(i) * 5 * time.Second}
	}
	res, err := Run(trace, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SuspendedCount != 0 {
		t.Fatalf("suspensions on uncontended run: %d", res.SuspendedCount)
	}
	if res.FinishTime < 50*time.Second {
		t.Fatalf("FinishTime = %v, want > last arrival at 45s + 5s run", res.FinishTime)
	}
}

func TestRunContentionSuspends(t *testing.T) {
	// Two xlarge (4096 MiB) on a 5 GiB GPU arriving together: the second
	// must wait for the first to finish.
	ct, _ := workload.TypeByName("xlarge")
	trace := []workload.TraceEntry{
		{Seq: 0, Type: ct, Arrival: 0},
		{Seq: 1, Type: ct, Arrival: time.Second},
	}
	res, err := Run(trace, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SuspendedCount != 1 {
		t.Fatalf("SuspendedCount = %d, want 1", res.SuspendedCount)
	}
	second := res.Containers[1]
	if !second.Completed {
		t.Fatal("second container never completed")
	}
	// First runs ~45s+copies; second waits roughly that minus 1s arrival
	// offset and its own startup.
	if second.Suspended < 40*time.Second {
		t.Fatalf("second suspended %v, want ~44s", second.Suspended)
	}
	// Serial execution: finish beyond 90s.
	if res.FinishTime < 90*time.Second {
		t.Fatalf("FinishTime = %v, want ~92s", res.FinishTime)
	}
	if res.Stalled {
		t.Fatal("run stalled")
	}
}

func TestRunAllAlgorithmsOnHeavyTrace(t *testing.T) {
	trace := workload.GenerateTrace(30, workload.DefaultSpacing, 99)
	for _, alg := range core.AlgorithmNames() {
		res, err := Run(trace, Config{Algorithm: alg, AlgSeed: 1})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Stalled {
			t.Logf("%s: run stalled (pathological partial grants)", alg)
			continue
		}
		for i, c := range res.Containers {
			if !c.Completed {
				t.Errorf("%s: container %d never completed", alg, i)
			}
		}
		if res.FinishTime <= 0 {
			t.Errorf("%s: FinishTime = %v", alg, res.FinishTime)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	trace := workload.GenerateTrace(20, workload.DefaultSpacing, 7)
	a, err := Run(trace, Config{Algorithm: "random", AlgSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(trace, Config{Algorithm: "random", AlgSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.FinishTime != b.FinishTime || a.AvgSuspended != b.AvgSuspended {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestRunBadAlgorithm(t *testing.T) {
	if _, err := Run(singleTrace("nano"), Config{Algorithm: "lru"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestRunTakesEveryWakePolicy: Run resolves Algorithm through the policy
// table, so a tenant-aware policy runs by name, and an alias runs exactly
// what its canonical name runs.
func TestRunTakesEveryWakePolicy(t *testing.T) {
	trace := workload.GenerateTrace(20, workload.DefaultSpacing, 7)
	canonical, err := Run(trace, Config{Algorithm: policy.WakeFairShare})
	if err != nil {
		t.Fatal(err)
	}
	alias, err := Run(trace, Config{Algorithm: "drf"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canonical, alias) {
		t.Fatalf("drf and fairshare diverged:\n%+v\n%+v", alias, canonical)
	}
}

func TestRunRejectsOversizedType(t *testing.T) {
	ct := workload.ContainerType{Index: 0, Name: "huge", GPUMemory: 6 * bytesize.GiB}
	_, err := Run([]workload.TraceEntry{{Type: ct}}, Config{})
	if err == nil {
		t.Fatal("oversized container type accepted")
	}
}

func TestSweepSmall(t *testing.T) {
	s := DefaultSweep()
	s.Counts = []int{4, 8}
	s.Reps = 2
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range s.Algorithms {
		for _, n := range s.Counts {
			cell, ok := res.Cells[alg][n]
			if !ok {
				t.Fatalf("missing cell %s/%d", alg, n)
			}
			if cell.FinishTime <= 0 {
				t.Errorf("cell %s/%d FinishTime = %v", alg, n, cell.FinishTime)
			}
		}
	}
	// More containers take longer for every algorithm.
	for _, alg := range s.Algorithms {
		if res.Cells[alg][8].FinishTime <= res.Cells[alg][4].FinishTime {
			t.Errorf("%s: 8 containers (%v) not slower than 4 (%v)",
				alg, res.Cells[alg][8].FinishTime, res.Cells[alg][4].FinishTime)
		}
	}
	// Tables render with the right shape.
	ft := res.FinishTable()
	if len(ft.Cols) != 2 || len(ft.Rows) != 4 {
		t.Fatalf("finish table shape = %dx%d", len(ft.Rows), len(ft.Cols))
	}
	st := res.SuspendTable()
	if len(st.Cols) != 2 || len(st.Rows) != 4 {
		t.Fatalf("suspend table shape = %dx%d", len(st.Rows), len(st.Cols))
	}
}

func TestSuspendedTimeGrowsWithLoad(t *testing.T) {
	s := Sweep{Counts: []int{6, 30}, Algorithms: []string{"fifo"}, Reps: 3, BaseSeed: 1, Spacing: workload.DefaultSpacing}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	lo := res.Cells["fifo"][6].AvgSuspended
	hi := res.Cells["fifo"][30].AvgSuspended
	if hi <= lo {
		t.Fatalf("suspension at 30 containers (%v) not above 6 (%v)", hi, lo)
	}
}

// wedgeTrace is the three-container reproducer of the partial-grant
// wedge (TESTING.md, "The partial-grant wedge"): a large container runs
// alone, one xlarge arrives 50 ms before it finishes and a second 30 ms
// after. The first xlarge registers into the 3072 MiB then unassigned;
// large closes while nobody is pending, so nothing is redistributed; the
// second xlarge registers into the 2048 MiB just returned; both then
// request 4030 MiB, both suspend holding unused partial grants that sum
// to the device, and no release event can ever come.
func wedgeTrace(t *testing.T) []workload.TraceEntry {
	t.Helper()
	alone, err := Run(singleTrace("large"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	large, _ := workload.TypeByName("large")
	xlarge, _ := workload.TypeByName("xlarge")
	return []workload.TraceEntry{
		{Seq: 0, Type: large, Arrival: 0},
		{Seq: 1, Type: xlarge, Arrival: alone.FinishTime - 50*time.Millisecond},
		{Seq: 2, Type: xlarge, Arrival: alone.FinishTime + 30*time.Millisecond},
	}
}

// TestPartialGrantWedgeIsReported drives the replay into its
// not-finished epilogue: the run returns without error, reports Stalled,
// leaves exactly the two xlarge containers incomplete and keeps every
// scheduler invariant — under all four paper algorithms, with and
// without the rescue pass (which only runs on a release, and none comes).
// It is a scheduler hole (ROADMAP item 2(a–b)), pinned here so the replay
// keeps reproducing it until core closes it.
func TestPartialGrantWedgeIsReported(t *testing.T) {
	trace := wedgeTrace(t)
	for _, algName := range core.AlgorithmNames() {
		for _, rescue := range []bool{false, true} {
			alg, err := policy.NewWake(algName, policy.Config{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			clk := clock.NewManual()
			st, err := core.New(core.Config{Capacity: 5 * bytesize.GiB, Algorithm: alg, Clock: clk, FaultTolerant: rescue})
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunWith(trace, st, clk, Config{Algorithm: algName})
			if err != nil {
				t.Fatalf("%s rescue=%v: %v", algName, rescue, err)
			}
			if !res.Stalled || !st.Stalled() {
				t.Errorf("%s rescue=%v: Stalled = %v (core %v), want the wedge", algName, rescue, res.Stalled, st.Stalled())
			}
			var incomplete []string
			for _, c := range res.Containers {
				if !c.Completed {
					incomplete = append(incomplete, string(c.ID))
				}
			}
			if len(incomplete) != 2 || incomplete[0] != "c001-xlarge" || incomplete[1] != "c002-xlarge" {
				t.Errorf("%s rescue=%v: incomplete = %v, want the two xlarge", algName, rescue, incomplete)
			}
			if err := st.CheckInvariants(); err != nil {
				t.Errorf("%s rescue=%v: %v", algName, rescue, err)
			}
			if free := st.PoolFree(); free != 0 {
				t.Errorf("%s rescue=%v: pool free = %v, want the device fully granted", algName, rescue, free)
			}
		}
	}
}

package convgpu_test

import (
	"context"
	"testing"
	"time"

	"convgpu"
)

func TestSimulateMultiGPUFacade(t *testing.T) {
	trace := convgpu.GenerateTrace(16, 5*time.Second, 3)
	one, err := convgpu.SimulateMultiGPU(trace, 1, "leastloaded", convgpu.BestFit)
	if err != nil {
		t.Fatal(err)
	}
	two, err := convgpu.SimulateMultiGPU(trace, 2, "leastloaded", convgpu.BestFit)
	if err != nil {
		t.Fatal(err)
	}
	if two.FinishTime > one.FinishTime {
		t.Fatalf("2 GPUs (%v) slower than 1 (%v)", two.FinishTime, one.FinishTime)
	}
	if _, err := convgpu.SimulateMultiGPU(trace, 2, "bogus", convgpu.BestFit); err == nil {
		t.Fatal("bogus policy accepted")
	}
	if len(convgpu.PlacementPolicies()) != 5 {
		t.Fatalf("policies = %v", convgpu.PlacementPolicies())
	}
}

// TestSimulateTopologiesTakeEveryPolicy: the facade's multi-GPU and
// cluster replays build through the one policy table, so the
// fragmentation-aware placement and the tenant-aware wake policies run
// there too (RunWith checks every scheduler invariant after each event).
func TestSimulateTopologiesTakeEveryPolicy(t *testing.T) {
	trace := convgpu.GenerateTrace(16, 5*time.Second, 3)
	multi, err := convgpu.SimulateMultiGPU(trace, 2, convgpu.FragAware, convgpu.FairShare)
	if err != nil {
		t.Fatal(err)
	}
	clus, err := convgpu.SimulateCluster(trace, 2, "binpack", convgpu.Priority)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []convgpu.SimResult{multi, clus} {
		if res.Stalled {
			t.Fatal("run stalled")
		}
		for _, c := range res.Containers {
			if !c.Completed {
				t.Fatalf("container %s never completed", c.ID)
			}
		}
	}
}

func TestSimulateClusterFacade(t *testing.T) {
	trace := convgpu.GenerateTrace(16, 5*time.Second, 3)
	res, err := convgpu.SimulateCluster(trace, 2, "spread", convgpu.FIFO)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Containers {
		if !c.Completed {
			t.Fatalf("container %s never completed", c.ID)
		}
	}
	if _, err := convgpu.SimulateCluster(trace, 2, "bogus", convgpu.FIFO); err == nil {
		t.Fatal("bogus strategy accepted")
	}
	if len(convgpu.ClusterStrategies()) != 3 {
		t.Fatalf("strategies = %v", convgpu.ClusterStrategies())
	}
}

func TestSystemEventLog(t *testing.T) {
	sys := newStack(t)
	c, err := sys.Run(context.Background(), convgpu.RunOptions{
		Name:         "ev1",
		Image:        convgpu.CUDAImage("app", ""),
		NvidiaMemory: 256 * convgpu.MiB,
		Program: func(p *convgpu.Proc) error {
			ptr, err := p.CUDA.Malloc(64 * convgpu.MiB)
			if err != nil {
				return err
			}
			return p.CUDA.Free(ptr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, e := range sys.Observability().Tracer().Events("ev1") {
		kinds[e.Kind] = true
	}
	for _, want := range []string{"register", "accept", "free", "procexit", "close"} {
		if !kinds[want] {
			t.Errorf("event log missing %q for ev1 (have %v)", want, kinds)
		}
	}
}

func TestSimulateReportsUtilization(t *testing.T) {
	trace := convgpu.GenerateTrace(12, 5*time.Second, 9)
	res, err := convgpu.SimulateContext(context.Background(), trace, convgpu.SimConfig{Algorithm: convgpu.BestFit})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgUtilization <= 0 || res.AvgUtilization > 1 {
		t.Fatalf("AvgUtilization = %v, want (0,1]", res.AvgUtilization)
	}
}

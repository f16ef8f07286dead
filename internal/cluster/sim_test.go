package cluster_test

import (
	"testing"

	"convgpu/internal/bytesize"
	"convgpu/internal/clock"
	"convgpu/internal/cluster"
	"convgpu/internal/core"
	"convgpu/internal/policy"
	"convgpu/internal/sim"
	"convgpu/internal/workload"
)

// TestSimOverCluster: a 2-node x 1-GPU cluster beats a single node on a
// contended trace. It lives in the external test package because sim
// resolves its policies through internal/policy, which imports cluster.
func TestSimOverCluster(t *testing.T) {
	trace := workload.GenerateTrace(24, workload.DefaultSpacing, 55)
	run := func(nodes int) sim.Result {
		clk := clock.NewManual()
		c, err := cluster.New(cluster.Config{
			Nodes:            nodes,
			GPUsPerNode:      1,
			CapacityPerGPU:   5 * bytesize.GiB,
			AlgorithmFactory: func(int64) core.Algorithm { return core.BestFit{} },
			Strategy:         cluster.Spread{},
			Device:           core.Config{Clock: clk},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunWith(trace, c, clk, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(1)
	two := run(2)
	if two.FinishTime >= one.FinishTime {
		t.Fatalf("2 nodes (%v) not faster than 1 (%v)", two.FinishTime, one.FinishTime)
	}
}

// TestNewStrategy: every node strategy name and alias builds through the
// policy table; an unknown name fails, and the table lists three.
func TestNewStrategy(t *testing.T) {
	for _, name := range []string{"spread", "binpack", "random", "rand"} {
		if _, err := policy.NewStrategy(name, policy.Config{Seed: 1}); err != nil {
			t.Errorf("NewStrategy(%q): %v", name, err)
		}
	}
	if _, err := policy.NewStrategy("magic", policy.Config{Seed: 1}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if len(policy.StrategyNames()) != 3 {
		t.Errorf("StrategyNames() = %v", policy.StrategyNames())
	}
}

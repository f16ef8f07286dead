package multigpu_test

import (
	"reflect"
	"testing"

	"convgpu/internal/bytesize"
	"convgpu/internal/clock"
	"convgpu/internal/core"
	"convgpu/internal/multigpu"
	"convgpu/internal/policy"
	"convgpu/internal/sim"
	"convgpu/internal/workload"
)

// TestSimOverMultiGPU replays a contended trace on 1 vs 2 GPUs: doubling
// devices must cut both finish time and suspension. It lives in the
// external test package because sim resolves its policies through
// internal/policy, which imports multigpu.
func TestSimOverMultiGPU(t *testing.T) {
	trace := workload.GenerateTrace(24, workload.DefaultSpacing, 77)
	run := func(devices int) sim.Result {
		clk := clock.NewManual()
		s, err := multigpu.New(multigpu.Config{
			Devices:           devices,
			CapacityPerDevice: 5 * bytesize.GiB,
			AlgorithmFactory:  func(int64) core.Algorithm { return core.BestFit{} },
			Policy:            multigpu.LeastLoaded{},
			Device:            core.Config{Clock: clk},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunWith(trace, s, clk, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(1)
	two := run(2)
	if two.FinishTime >= one.FinishTime {
		t.Fatalf("2 GPUs (%v) not faster than 1 (%v)", two.FinishTime, one.FinishTime)
	}
	if two.AvgSuspended >= one.AvgSuspended {
		t.Fatalf("2 GPUs suspension (%v) not below 1 GPU (%v)", two.AvgSuspended, one.AvgSuspended)
	}
	for _, c := range two.Containers {
		if !c.Completed {
			t.Fatalf("container %s never completed on 2 GPUs", c.ID)
		}
	}
}

// TestNewPolicy: every placement name multigpu serves, and its alias,
// builds through the policy table; an unknown name fails, and the table
// lists the four legacy names ahead of fragaware.
func TestNewPolicy(t *testing.T) {
	for _, name := range []string{"roundrobin", "rr", "leastloaded", "ll", "firstfit", "ff", "bestfit", "bf"} {
		if _, err := policy.NewPlace(name, policy.Config{}); err != nil {
			t.Errorf("NewPlace(%q): %v", name, err)
		}
	}
	if _, err := policy.NewPlace("nope", policy.Config{}); err == nil {
		t.Error("unknown policy accepted")
	}
	legacy := []string{multigpu.PolicyRoundRobin, multigpu.PolicyLeastLoaded, multigpu.PolicyFirstFit, multigpu.PolicyBestFit}
	if got := policy.PlaceNames(); len(got) != 5 || !reflect.DeepEqual(got[:4], legacy) {
		t.Errorf("PlaceNames() = %v, want %v then fragaware", got, legacy)
	}
}

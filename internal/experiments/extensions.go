package experiments

import (
	"fmt"

	"convgpu/internal/clock"
	"convgpu/internal/cluster"
	"convgpu/internal/core"
	"convgpu/internal/metrics"
	"convgpu/internal/multigpu"
	"convgpu/internal/policy"
	"convgpu/internal/sim"
	"convgpu/internal/workload"
)

func init() {
	register("multigpu", "extension: placement policies over 1-4 GPUs (paper §V future work)", MultiGPU)
	register("cluster", "extension: Swarm-style strategies over 1-4 nodes (paper §V future work)", ClusterExp)
}

// x1Policies are X1's rows: the four device placement policies the
// table has always had, listed here so it keeps its shape.
var x1Policies = []string{
	multigpu.PolicyRoundRobin, multigpu.PolicyLeastLoaded, multigpu.PolicyFirstFit, multigpu.PolicyBestFit,
}

// runTopology replays trace on the K20m-sized backend spec describes,
// every scheduler in it on one virtual clock.
func runTopology(trace []workload.TraceEntry, spec policy.Spec) (sim.Result, error) {
	clk := clock.NewManual()
	spec.Capacity, spec.Device = sim.DeviceCapacity, core.Config{Clock: clk}
	sched, err := policy.NewScheduler(spec)
	if err != nil {
		return sim.Result{}, err
	}
	return sim.RunWith(trace, sched, clk, sim.Config{})
}

// MultiGPU evaluates the multi-GPU extension: the same contended trace
// scheduled over 1, 2 and 4 GPUs under each placement policy, with
// Best-Fit redistribution on every device.
func MultiGPU(opt Options) (*Report, error) {
	n, reps := 32, 4
	if opt.Quick {
		n, reps = 24, 2
	}
	deviceCounts := []int{1, 2, 4}
	t := &metrics.Table{
		Title:     "X1: finished time by placement policy and GPU count (s)",
		ColHeader: "GPUs",
	}
	for _, d := range deviceCounts {
		t.Cols = append(t.Cols, fmt.Sprintf("%d", d))
	}
	type key struct {
		policy  string
		devices int
	}
	finish := map[key]float64{}
	for _, polName := range x1Policies {
		for _, devices := range deviceCounts {
			var total float64
			for rep := 0; rep < reps; rep++ {
				trace := workload.GenerateTrace(n, workload.DefaultSpacing, 31000+int64(rep))
				res, err := runTopology(trace, policy.Spec{Devices: devices, Wake: core.AlgBestFit, Place: polName})
				if err != nil {
					return nil, err
				}
				total += res.FinishTime.Seconds() / float64(reps)
			}
			finish[key{polName, devices}] = total
		}
	}
	for _, polName := range x1Policies {
		var cells []float64
		for _, d := range deviceCounts {
			cells = append(cells, finish[key{polName, d}])
		}
		t.AddRow(polName, cells)
	}
	speedup := finish[key{multigpu.PolicyLeastLoaded, 1}] / finish[key{multigpu.PolicyLeastLoaded, 4}]
	return &Report{
		ID:     "multigpu",
		Title:  "multi-GPU extension (paper §V future work)",
		Tables: []*metrics.Table{t},
		Notes: []string{
			// The makespan is floored by the arrival span (a container
			// every 5 s), so the attainable speedup is bounded; any
			// consistent gain demonstrates the extension works.
			shapeNote(fmt.Sprintf("adding GPUs shortens the batch (x%.2f from 1 to 4 GPUs, least-loaded)", speedup),
				speedup > 1.02),
		},
	}, nil
}

// ClusterExp evaluates the cluster extension: the trace scheduled over
// 1, 2 and 4 single-GPU nodes under each Swarm-style strategy.
func ClusterExp(opt Options) (*Report, error) {
	n, reps := 32, 4
	if opt.Quick {
		n, reps = 24, 2
	}
	nodeCounts := []int{1, 2, 4}
	t := &metrics.Table{
		Title:     "X2: finished time by cluster strategy and node count (s)",
		ColHeader: "nodes (1 GPU each)",
	}
	for _, d := range nodeCounts {
		t.Cols = append(t.Cols, fmt.Sprintf("%d", d))
	}
	type key struct {
		strategy string
		nodes    int
	}
	finish := map[key]float64{}
	for _, stratName := range policy.StrategyNames() {
		for _, nodes := range nodeCounts {
			var total float64
			for rep := 0; rep < reps; rep++ {
				trace := workload.GenerateTrace(n, workload.DefaultSpacing, 47000+int64(rep))
				res, err := runTopology(trace, policy.Spec{Nodes: nodes, Wake: core.AlgBestFit, Strategy: stratName, Seed: int64(rep)})
				if err != nil {
					return nil, err
				}
				total += res.FinishTime.Seconds() / float64(reps)
			}
			finish[key{stratName, nodes}] = total
		}
	}
	for _, stratName := range policy.StrategyNames() {
		var cells []float64
		for _, d := range nodeCounts {
			cells = append(cells, finish[key{stratName, d}])
		}
		t.AddRow(stratName, cells)
	}
	speedup := finish[key{cluster.StrategySpread, 1}] / finish[key{cluster.StrategySpread, 4}]
	return &Report{
		ID:     "cluster",
		Title:  "cluster (Swarm-style) extension (paper §V future work)",
		Tables: []*metrics.Table{t},
		Notes: []string{
			shapeNote(fmt.Sprintf("adding nodes shortens the batch (x%.2f from 1 to 4 nodes, spread)", speedup),
				speedup > 1.02),
		},
	}, nil
}

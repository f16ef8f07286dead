// Scaleout: the paper's future work (§V), running.
//
// "Our future work will extend the ConVGPU in a multiple GPU ... Our
// further step is to adopt the ConVGPU in the clustering system like
// Docker Swarm." This example replays one contended cloud trace against
// both extensions: the same containers scheduled over 1, 2 and 4 GPUs
// (per placement policy), then over 1, 2 and 4 single-GPU Swarm-style
// nodes (per strategy), in virtual time.
//
//	go run ./examples/scaleout
package main

import (
	"fmt"
	"log"
	"time"

	"convgpu"
)

func main() {
	const n = 32
	trace := convgpu.GenerateTrace(n, 5*time.Second, 1234)
	fmt.Printf("trace: %d containers, random Table III types, 5s arrivals\n\n", n)

	fmt.Println("multi-GPU extension — finished time by placement policy:")
	fmt.Printf("  %-12s", "policy")
	for _, d := range []int{1, 2, 4} {
		fmt.Printf("  %6d GPU(s)", d)
	}
	fmt.Println()
	for _, pol := range convgpu.PlacementPolicies() {
		fmt.Printf("  %-12s", pol)
		for _, devices := range []int{1, 2, 4} {
			res, err := convgpu.SimulateMultiGPU(trace, devices, pol, convgpu.BestFit)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %12.1fs", res.FinishTime.Seconds())
		}
		fmt.Println()
	}

	fmt.Println("\ncluster extension — finished time by Swarm strategy:")
	fmt.Printf("  %-12s", "strategy")
	for _, d := range []int{1, 2, 4} {
		fmt.Printf("  %6d node(s)", d)
	}
	fmt.Println()
	for _, strat := range convgpu.ClusterStrategies() {
		fmt.Printf("  %-12s", strat)
		for _, nodes := range []int{1, 2, 4} {
			res, err := convgpu.SimulateCluster(trace, nodes, strat, convgpu.BestFit)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %12.1fs", res.FinishTime.Seconds())
		}
		fmt.Println()
	}

	fmt.Println("\n(the floor is the 160s arrival span: containers keep arriving every 5s)")
}

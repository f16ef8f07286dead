// Cloudsim: compare the four scheduling algorithms on an emulated cloud.
//
// This is the paper's Section IV-C methodology as a library user would
// consume it: generate a randomized trace of AWS-T2-style containers
// (Table III) arriving every five seconds, replay it in virtual time
// under each algorithm, and compare total finish time (Fig. 7) against
// average per-container suspension (Fig. 8).
//
//	go run ./examples/cloudsim
//	go run ./examples/cloudsim -n 38 -reps 6
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"convgpu"
)

func main() {
	n := flag.Int("n", 30, "containers per run")
	reps := flag.Int("reps", 4, "repetitions (fresh random trace each)")
	seed := flag.Int64("seed", 2017, "base trace seed")
	flag.Parse()
	ctx := context.Background()

	fmt.Printf("emulated cloud: %d containers, random Table III types, one every %v, 5 GiB GPU\n\n",
		*n, 5*time.Second)
	fmt.Printf("%-10s  %14s  %16s  %14s\n", "algorithm", "finish (s)", "avg suspended (s)", "max susp (s)")

	type agg struct{ finish, avg, max time.Duration }
	results := map[string]agg{}
	for rep := 0; rep < *reps; rep++ {
		trace := convgpu.GenerateTrace(*n, 5*time.Second, *seed+int64(rep))
		for _, alg := range convgpu.Algorithms() {
			res, err := convgpu.SimulateContext(ctx, trace, convgpu.SimConfig{Algorithm: alg, AlgSeed: *seed})
			if err != nil {
				log.Fatal(err)
			}
			if res.Stalled {
				log.Fatalf("%s: run stalled — this should be impossible with reclaiming grants", alg)
			}
			a := results[alg]
			a.finish += res.FinishTime / time.Duration(*reps)
			a.avg += res.AvgSuspended / time.Duration(*reps)
			a.max += res.MaxSuspended / time.Duration(*reps)
			results[alg] = a
		}
	}

	bestFinish := ""
	for _, alg := range convgpu.Algorithms() {
		a := results[alg]
		fmt.Printf("%-10s  %14.1f  %16.1f  %14.1f\n",
			alg, a.finish.Seconds(), a.avg.Seconds(), a.max.Seconds())
		if bestFinish == "" || a.finish < results[bestFinish].finish {
			bestFinish = alg
		}
	}
	fmt.Printf("\nfastest overall: %s", bestFinish)
	if bestFinish == convgpu.BestFit {
		fmt.Printf(" — matching the paper's Fig. 7 finding that Best-Fit maximizes GPU memory throughput")
	}
	fmt.Println()

	// Show one run in detail: who waited, and for how long.
	fmt.Printf("\nper-container detail (one %s run):\n", convgpu.BestFit)
	trace := convgpu.GenerateTrace(*n, 5*time.Second, *seed)
	res, err := convgpu.SimulateContext(ctx, trace, convgpu.SimConfig{Algorithm: convgpu.BestFit})
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range res.Containers {
		marker := ""
		if c.Suspended > 0 {
			marker = fmt.Sprintf("  <- waited %v", c.Suspended.Round(time.Millisecond))
		}
		fmt.Printf("  %-16s arrived %-5v finished %-8v%s\n",
			c.ID, c.Arrival, c.Finished.Round(time.Millisecond), marker)
	}
}

// Command convgpu-sim replays the paper's multi-container scheduling
// experiments (Section IV-C) in virtual time: containers of random
// Table III types arriving every five seconds, scheduled by one of the
// four algorithms on a simulated 5 GiB GPU. A full Fig. 7/8 sweep that
// took the paper's testbed hours replays in well under a second.
//
// Usage:
//
//	convgpu-sim                               # the paper's full sweep (Tables IV+V)
//	convgpu-sim -n 38 -algorithm bestfit      # one run, per-container detail
//	convgpu-sim -reps 10 -max 24 -csv
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/metrics"
	"convgpu/internal/policy"
	"convgpu/internal/sim"
	"convgpu/internal/workload"
)

func main() {
	var (
		n          = flag.Int("n", 0, "run a single trace with n containers (0 = full sweep)")
		algorithm  = flag.String("algorithm", core.AlgFIFO, "wake-order policy for -n runs: "+strings.Join(policy.WakeNames(), "|"))
		algorithms = flag.String("algorithms", strings.Join(core.AlgorithmNames(), ","), "comma-separated wake-order policies for the sweep")
		reps       = flag.Int("reps", 6, "repetitions per sweep cell")
		minN       = flag.Int("min", 4, "sweep minimum container count")
		maxN       = flag.Int("max", 38, "sweep maximum container count")
		step       = flag.Int("step", 2, "sweep container count step")
		seed       = flag.Int64("seed", 20170712, "base trace seed")
		capacity   = flag.String("capacity", "5GiB", "GPU capacity")
		spacing    = flag.Duration("spacing", workload.DefaultSpacing, "container arrival spacing")
		persistent = flag.Bool("persistent-grants", false, "use the non-reclaiming grant semantics (ablation)")
		rescue     = flag.Bool("fault-tolerant", false, "enable the [10] rescue pass when the policy wedges")
		csv        = flag.Bool("csv", false, "emit tables as CSV")
		util       = flag.Bool("utilization", false, "also print measured memory utilization per cell")
	)
	flag.Parse()
	cap, err := bytesize.Parse(*capacity)
	if err != nil {
		log.Fatalf("convgpu-sim: -capacity: %v", err)
	}
	cfg := sim.Config{Capacity: cap, PersistentGrants: *persistent, FaultTolerant: *rescue}

	if *n > 0 {
		trace := workload.GenerateTrace(*n, *spacing, *seed)
		cfg.Algorithm = *algorithm
		cfg.AlgSeed = *seed
		res, err := sim.Run(trace, cfg)
		if err != nil {
			log.Fatalf("convgpu-sim: %v", err)
		}
		fmt.Printf("algorithm=%s containers=%d finish=%v avg_suspended=%v max_suspended=%v suspended=%d/%d stalled=%v\n",
			*algorithm, *n, res.FinishTime.Round(time.Millisecond),
			res.AvgSuspended.Round(time.Millisecond), res.MaxSuspended.Round(time.Millisecond),
			res.SuspendedCount, len(res.Containers), res.Stalled)
		for _, c := range res.Containers {
			fmt.Printf("  %-16s arrival=%-6v finished=%-8v suspended=%-8v completed=%v\n",
				c.ID, c.Arrival, c.Finished.Round(time.Millisecond), c.Suspended.Round(time.Millisecond), c.Completed)
		}
		return
	}

	s := sim.Sweep{
		Reps:     *reps,
		BaseSeed: *seed,
		Spacing:  *spacing,
		Config:   cfg,
	}
	for c := *minN; c <= *maxN; c += *step {
		s.Counts = append(s.Counts, c)
	}
	for _, a := range strings.Split(*algorithms, ",") {
		if a = strings.TrimSpace(a); a != "" {
			s.Algorithms = append(s.Algorithms, a)
		}
	}
	res, err := s.Run()
	if err != nil {
		log.Fatalf("convgpu-sim: %v", err)
	}
	tables := []*metrics.Table{res.FinishTable(), res.SuspendTable()}
	if *util {
		tables = append(tables, res.UtilizationTable())
	}
	for i, t := range tables {
		if i > 0 {
			fmt.Println()
		}
		if *csv {
			t.CSV(os.Stdout)
		} else {
			t.Render(os.Stdout)
		}
	}
}

// Command bench is the repository's benchmark: four workloads driven
// through the public facade in one process, each reporting the
// end-to-end metrics of BENCHMARK.json, plus a traced run that reports
// the per-layer metrics. bench/README.md is the glossary.
//
//	bash bench/run.sh --workload cycle --seed 1 --seconds 40 --trace 0
//	bash bench/run.sh --workload all
//	bash bench/run.sh --workload handoff --trace 1
//	bash bench/run.sh --selfcheck 5
//
// A run prints every metric as "name unit value n=samples" and, as its
// last line, one JSON object {correct, attempted, failed, metrics}. It
// exits non-zero when an output check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

const runRoot = ".bench_run" // relative: see rig

func main() {
	var (
		name      = flag.String("workload", "all", "cycle, cycle_wal, handoff, contention, or all")
		seed      = flag.Int64("seed", scenarioSeed, "seed of the run's inputs (allocation sizes)")
		scenario  = flag.Int64("scenario-seed", scenarioSeed, "seed of the contention scenario; other seeds cost other amounts, so compare only runs of one")
		seconds   = flag.Int("seconds", 40, "length of the timed phase")
		trace     = flag.Int("trace", 0, "1 for the traced run, which prints the per-layer metrics")
		spans     = flag.String("spans", "", "where the traced run writes its spans (default .bench_run/spans-<workload>.json)")
		quick     = flag.Bool("quick", false, "a smoke run: 400 ms timed, small set-ups")
		selfcheck = flag.Int("selfcheck", 0, "run the suite 2×K times and compare the two halves against BENCHMARK.json's bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *selfcheck > 0 {
		os.Exit(runSelfcheck(*selfcheck, *seed, *seconds))
	}
	if *name == "all" {
		args := []string{"-seed", fmt.Sprint(*seed), "-scenario-seed", fmt.Sprint(*scenario),
			"-seconds", fmt.Sprint(*seconds), "-trace", fmt.Sprint(*trace), fmt.Sprintf("-quick=%v", *quick)}
		code := 0
		for _, w := range workloads {
			if _, err := runChild(w.name, args); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				code = 1
			}
		}
		os.Exit(code)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	o := &options{
		seed: *seed, scenarioSeed: *scenario, quick: *quick,
		timed:     time.Duration(*seconds) * time.Second,
		runDir:    filepath.Join(runRoot, fmt.Sprint("p", os.Getpid())),
		spansPath: *spans,
	}
	if o.quick {
		o.timed = 400 * time.Millisecond
	}
	if o.spansPath == "" {
		o.spansPath = filepath.Join(runRoot, "spans-"+w.name+".json")
	}
	os.Exit(runOne(w, o, *trace != 0))
}

// runOne runs one workload in this process and prints its result.
func runOne(w workload, o *options, traced bool) int {
	if err := os.MkdirAll(o.runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(o.runDir)

	// A wedged run must not hang whatever drives the benchmark: three
	// times the nominal length, it reports itself failed and leaves.
	nominal := time.Duration(setups)*2*time.Second + o.timed
	watchdog := time.AfterFunc(min(3*nominal, 170*time.Second), func() {
		fmt.Fprintln(os.Stderr, "bench: watchdog: the run is wedged; goroutines follow")
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		os.RemoveAll(o.runDir)
		printResult(result{Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}})
		os.Exit(3)
	})
	defer watchdog.Stop()

	calib, err := newCalibrator(o.runDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer calib.close()
	o.calib, o.ref = calib, w.ref
	fmt.Printf("# workload %s seed %d: %v timed, traced=%v\n", w.name, o.seed, o.timed, traced)
	run := runEndToEnd
	if traced {
		run = runTraced
	}
	res, rep, err := run(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	rep.print(os.Stdout)
	fmt.Printf("# attempted %d failed %d (failed_share %.6f) correct %v\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), res.Correct)
	printResult(res)
	if !res.Correct {
		return 1
	}
	return 0
}

func printResult(res result) {
	line, _ := json.Marshal(res)
	fmt.Printf("%s\n", line)
}

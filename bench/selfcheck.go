package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
)

// runChild runs one workload in a process of its own — the resident-set
// peak is per process — passes its output through, and returns the
// result on its last line.
func runChild(name string, args []string) (result, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(exe, append([]string{"-workload", name}, args...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return res, err
	}
	if err := cmd.Start(); err != nil {
		return res, err
	}
	var last string
	sc := bufio.NewScanner(io.TeeReader(out, os.Stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	if err := cmd.Wait(); err != nil {
		return res, err
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("last line is not a result: %w", err)
	}
	return res, nil
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them, which is what the driver
// that judges this benchmark computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1 // 0-based
		lo := min(max(int(math.Floor(pos)), 0), len(s)-2)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.75)
}

// runSelfcheck runs the suite 2×k times on one binary, assigning runs
// alternately to set A and set B, and holds the benchmark to its own
// bounds: the two sets' medians may not differ by more than a metric's
// bound, and (setup_s apart) the quartile spread of all the runs may not
// exceed it either. It prints the table bench/README.md records.
func runSelfcheck(k int, seed int64, seconds int) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: selfcheck reads the bounds from the working directory:", err)
		return 2
	}
	type key struct{ workload, metric string }
	sets := map[key]*[2][]float64{}
	code := 0
	for i := 0; i < 2*k; i++ {
		for _, w := range workloads {
			if w.extra {
				continue
			}
			args := []string{"-seed", fmt.Sprint(seed + int64(i)), "-seconds", fmt.Sprint(seconds)}
			res, err := runChild(w.name, args)
			if err != nil || res.Failed != 0 {
				fmt.Fprintf(os.Stderr, "bench: selfcheck: %s run %d: failed=%d %v\n", w.name, i, res.Failed, err)
				code = 1
				continue
			}
			for name, m := range res.Metrics {
				k := key{w.name, name}
				if sets[k] == nil {
					sets[k] = new([2][]float64)
				}
				sets[k][i%2] = append(sets[k][i%2], m.Value)
			}
		}
	}
	fmt.Printf("\n%-11s %-10s %10s %21s %10s %21s %8s %8s %7s\n",
		"workload", "metric", "median A", "quartiles A", "median B", "quartiles B", "B vs A", "spread", "bound")
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			s := sets[key{w.name, m.Name}]
			if s == nil || len(s[0]) < 2 || len(s[1]) < 2 {
				continue
			}
			ma, mb := median(s[0]), median(s[1])
			a1, a3 := quartiles(s[0])
			b1, b3 := quartiles(s[1])
			all := append(slices.Clone(s[0]), s[1]...)
			q1, q3 := quartiles(all)
			diff, spread := mb/ma-1, (q3-q1)/median(all)
			verdict := ""
			if math.Abs(diff) > m.Bound || (m.Name != "setup_s" && spread > m.Bound) {
				verdict, code = "  EXCEEDS", 1
			} else if m.Name != "setup_s" && spread > m.Bound/3 {
				verdict = "  (spread above a third of the bound)"
			}
			fmt.Printf("%-11s %-10s %10.4g %10.4g-%-10.4g %10.4g %10.4g-%-10.4g %+7.1f%% %7.1f%% %6.0f%%%s\n",
				w.name, m.Name, ma, a1, a3, mb, b1, b3, 100*diff, 100*spread, 100*m.Bound, verdict)
		}
	}
	if code != 0 {
		fmt.Println("selfcheck: FAILED")
	}
	return code
}

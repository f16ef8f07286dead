// Command benchdiff compares two `go test -bench` outputs the way
// benchstat does, without the external dependency: it pairs benchmarks
// by name, prints old/new time and allocation columns with percentage
// deltas, and exits nonzero when any paired benchmark's allocs/op grew
// — the hook `make benchdiff` uses to gate hot-path changes against the
// committed baseline.
//
// Usage:
//
//	go run ./tools/benchdiff old.txt new.txt
//
// Allocation counts are deterministic — unlike wall time they need no
// slack — so the gate is exact, which is how CI holds the hot paths to
// their 0-alloc budgets even on noisy shared runners. The ns/op columns
// are for reading only: this tool sees one sample per side, so it
// reports deltas without significance testing, and no threshold on one
// sample from a shared runner is both tight enough to mean something
// and loose enough to pass. Timing is judged by the repository
// benchmark (bench/), which measures it properly.
//
// One timing is gated: the observability rung (rung), a ratio of two rows
// of one run, which moves with the machine far less than either row.
package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// obsRungSlack is how far the observability rung may rise above the
// committed one: three times its spread over ten runs of the whole
// hot-path suite on one 2-vCPU VM (2.025–2.092, 0.067), rounded up. A
// 50 ns busy-wait planted in the observer took it from 2.09 to 3.59.
const obsRungSlack = 0.2

type result struct {
	name   string
	nsOp   float64
	bOp    int64
	allocs int64
	hasMem bool
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff old.txt new.txt")
		os.Exit(2)
	}
	old, err := parseFile(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	cur, err := parseFile(os.Args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	names := make([]string, 0, len(old)+len(cur))
	for name := range old {
		names = append(names, name)
	}
	for name := range cur {
		if _, ok := old[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	var rows [][]string
	rows = append(rows, []string{"benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs"})
	var allocRegs []string
	for _, name := range names {
		o, inOld := old[name]
		n, inCur := cur[name]
		switch {
		case !inCur:
			rows = append(rows, []string{name, formatNs(o.nsOp), "gone", "", formatAllocs(o), ""})
		case !inOld:
			rows = append(rows, []string{name, "new", formatNs(n.nsOp), "", "", formatAllocs(n)})
		default:
			delta := ""
			if o.nsOp > 0 {
				delta = fmt.Sprintf("%+.1f%%", (n.nsOp-o.nsOp)/o.nsOp*100)
			}
			if o.hasMem && n.hasMem && n.allocs > o.allocs {
				allocRegs = append(allocRegs, fmt.Sprintf("%s allocs/op grew %d -> %d", name, o.allocs, n.allocs))
			}
			rows = append(rows, []string{name, formatNs(o.nsOp), formatNs(n.nsOp), delta, formatAllocs(o), formatAllocs(n)})
		}
	}
	printTable(rows)

	for _, reg := range allocRegs {
		fmt.Fprintf(os.Stderr, "benchdiff: %s (alloc budgets admit no slack)\n", reg)
	}
	failed := len(allocRegs) > 0
	if o := rung(old); o > 0 {
		n := rung(cur)
		fmt.Printf("observability rung CoreAccept/CoreAcceptBare: %.3f -> %.3f (bound %.3f)\n", o, n, o+obsRungSlack)
		if n == 0 || n > o+obsRungSlack {
			fmt.Fprintf(os.Stderr, "benchdiff: observability rung %.3f exceeds the committed %.3f by more than %.2f\n", n, o, obsRungSlack)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// rung is core admit with its observer bound against none, CoreAccept ÷
// CoreAcceptBare in one run; 0 without either row.
func rung(rs map[string]result) float64 {
	if den := rs["BenchmarkHotPathCoreAcceptBare"].nsOp; den > 0 {
		return rs["BenchmarkHotPathCoreAccept"].nsOp / den
	}
	return 0
}

// parseFile reads one benchmark output file into results keyed by name,
// with the -N GOMAXPROCS suffix stripped so runs from differently sized
// machines pair up. A name appearing multiple times (-count>1) keeps
// its best (minimum) ns/op — the least-noise sample.
func parseFile(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]result)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		r, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		if prev, seen := out[r.name]; seen && prev.nsOp <= r.nsOp {
			continue
		}
		out[r.name] = r
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines", path)
	}
	return out, nil
}

// parseLine extracts one `BenchmarkX  N  ns/op [B/op allocs/op]` row.
func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	r := result{name: fields[0]}
	if i := strings.LastIndex(r.name, "-"); i > 0 {
		if _, err := strconv.Atoi(r.name[i+1:]); err == nil {
			r.name = r.name[:i]
		}
	}
	found := false
	for i := 2; i+1 < len(fields); i++ {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.nsOp, found = v, true
		case "B/op":
			r.bOp, r.hasMem = int64(v), true
		case "allocs/op":
			r.allocs, r.hasMem = int64(v), true
		}
	}
	return r, found
}

func formatNs(ns float64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.1fns", ns)
	}
}

func formatAllocs(r result) string {
	if !r.hasMem {
		return ""
	}
	return fmt.Sprintf("%d (%dB)", r.allocs, r.bOp)
}

func printTable(rows [][]string) {
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == 0 {
				b.WriteString(cell + strings.Repeat(" ", widths[i]-len(cell)))
			} else {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)) + cell)
			}
		}
		fmt.Println(strings.TrimRight(b.String(), " "))
	}
}

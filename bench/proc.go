package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procStat is a reading of the process's and the host's counters; the
// per-layer "proc" and "host" metrics are differences of two readings.
type procStat struct {
	cpu       time.Duration // user + system
	ctxsw     int64         // voluntary + involuntary
	mallocs   uint64
	bytes     uint64
	gcs       uint32
	rwSyscall int64 // read + write syscalls, /proc/self/io
	steal     int64 // host steal jiffies, /proc/stat
	jiffies   int64 // host total jiffies
}

func readProc() procStat {
	var p procStat
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		p.ctxsw = ru.Nvcsw + ru.Nivcsw
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.mallocs, p.bytes, p.gcs = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	p.rwSyscall = procField("/proc/self/io", "syscr:", "syscw:")
	if f, err := os.Open("/proc/stat"); err == nil {
		sc := bufio.NewScanner(f)
		if sc.Scan() {
			// cpu user nice system idle iowait irq softirq steal ...
			for i, v := range strings.Fields(sc.Text()) {
				n, _ := strconv.ParseInt(v, 10, 64)
				if i >= 1 && i <= 8 {
					p.jiffies += n
				}
				if i == 8 {
					p.steal = n
				}
			}
		}
		f.Close()
	}
	return p
}

// procField sums the first numbers after the given keys in a /proc file
// of "key value" lines.
func procField(path string, keys ...string) (sum int64) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		for _, key := range keys {
			if rest, ok := strings.CutPrefix(line, key); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					n, _ := strconv.ParseInt(f[0], 10, 64)
					sum += n
				}
			}
		}
	}
	return sum
}

// residentMiB is the process's resident set; peakRSSMiB its high-water
// mark. The end-to-end metric is the median of the former over the
// windows of a run: the peak is set by where the garbage collector
// happened to be during the worst burst and read 25–33 MiB on
// `contention` where the median read 19.8–20.3.
func residentMiB() float64 { return float64(procField("/proc/self/status", "VmRSS:")) / 1024 }

func peakRSSMiB() float64 { return float64(procField("/proc/self/status", "VmHWM:")) / 1024 }

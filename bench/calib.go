package main

import (
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The target machine is a small VM on a shared host. The host slows it
// by 10–50 % for minutes at a time, its disk answers an fsync in 95 µs
// or in 1 ms depending on the neighbours, and a virtual CPU is taken away
// for milliseconds (bench/README.md, "Noise study"): no statistic of a
// 40-second run survives that, but the ratio of an operation's latency
// to that of a reference operation measured within the same 50 ms does.
// So the timed phase alternates between the workload and a short slice
// of reference work that touches none of the repository's code, and
// every time the benchmark reports is scaled to what it would be with
// the reference at its quiet-machine value below ("reference speed").
//
// A reference has to be bound by what binds the workload, and be about
// as short as its operation, or the neighbours move the one and not the
// other: a one-byte ping-pong between two goroutines over a socket pair
// is wake-up bound, like a round trip to the daemon (cycle, handoff);
// three of them, on the first and last of which the far side appends to
// a file and fsyncs before it answers, are the skeleton of a logged cycle
// and wait for the disk as it does (cycle_wal); sorting 64k integers is
// CPU bound, like a replay pass (contention).
type refKind int

const (
	refPingPong refKind = iota
	refFsync
	refSort
)

// ref0 is each reference's median on the quiet target VM, in ns. Tails
// are scaled by the median too: the reference's own 90th percentile is
// one of two values from window to window (ping-pong 4.9 or 8.5 µs).
var ref0 = [...]float64{refPingPong: 4200, refFsync: 300e3, refSort: 4.7e6}

// acrossWindows is the quantile of the windows' scaled values a run
// reports. Neighbours only ever slow an operation, so the estimate they
// touch least is a low quantile — as long as the reference is steady. The
// ping-pong is (±2 % from window to window), and the lower quartile of
// the windows moved 3 % (p50) and 13 % (p90) under synthetic neighbours
// where their median moved 5 % and 25 %. The fsync reference is not
// (±10 %): a window in which the disk stalled under the reference and not
// under the workload reads low, and under a busy disk the lower quartile
// fell 35 % where the median held to 2 %.
var acrossWindows = [...]float64{refPingPong: 0.25, refFsync: 0.5, refSort: 0.5}

// refSlice is the reference work that ends each slice of a window.
var refSlice = [...]time.Duration{
	refPingPong: 8 * time.Millisecond,
	refFsync:    15 * time.Millisecond,
	refSort:     40 * time.Millisecond,
}

type calibrator struct {
	a, b   net.Conn
	file   *os.File // the fsync reference appends here
	record [48]byte
	byte1  [1]byte
	times  []uint32
	unsort []uint64
	sorted []uint64
}

// newCalibrator sets the references up; the fsync reference writes to a
// file in dir, which has to be on the file system the workload's log is on.
func newCalibrator(dir string) (*calibrator, error) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		return nil, err
	}
	fa, fb := os.NewFile(uintptr(fds[0]), "ref-a"), os.NewFile(uintptr(fds[1]), "ref-b")
	defer fa.Close()
	defer fb.Close()
	c := &calibrator{times: make([]uint32, 0, 1<<15), unsort: make([]uint64, 1<<16), sorted: make([]uint64, 1<<16)}
	rng := rand.New(rand.NewSource(1))
	for i := range c.unsort {
		c.unsort[i] = rng.Uint64()
	}
	if c.file, err = os.OpenFile(filepath.Join(dir, "reference.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, err
	}
	if c.a, err = net.FileConn(fa); err != nil {
		c.file.Close()
		return nil, err
	}
	if c.b, err = net.FileConn(fb); err != nil {
		c.file.Close()
		c.a.Close()
		return nil, err
	}
	go func() { // echoes until close shuts the pair; a 1 is made durable first
		var buf [1]byte
		for {
			if _, err := c.b.Read(buf[:]); err != nil {
				return
			}
			if buf[0] == 1 {
				c.file.Write(c.record[:])
				c.file.Sync()
			}
			c.b.Write(buf[:])
		}
	}()
	return c, nil
}

func (c *calibrator) close() {
	c.a.Close()
	c.b.Close()
	c.file.Close()
}

// begin forgets the reference samples taken so far.
func (c *calibrator) begin() { c.times = c.times[:0] }

// slice runs the reference for about the given time, at least three
// times, and keeps the time each operation took.
func (c *calibrator) slice(kind refKind, length time.Duration) {
	rtt := func(durable byte) {
		c.byte1[0] = durable
		c.a.Write(c.byte1[:])
		c.a.Read(c.byte1[:])
	}
	op := func() { rtt(0) }
	switch kind {
	case refFsync:
		// The skeleton of a logged cycle: alloc, confirm and free are a
		// round trip each, and the far side logs the first and the last.
		op = func() {
			rtt(1)
			rtt(0)
			rtt(1)
		}
	case refSort:
		op = func() {
			copy(c.sorted, c.unsort)
			slices.Sort(c.sorted)
		}
	}
	for n, end := 0, time.Now().Add(length); n < 3 || (time.Now().Before(end) && len(c.times) < cap(c.times)); n++ {
		start := time.Now()
		op()
		c.times = append(c.times, uint32(min(time.Since(start), 1<<32-1)))
	}
}

// median is that of the samples taken since begin, in ns.
func (c *calibrator) median() float64 {
	slices.Sort(c.times)
	return pctSorted(c.times, 0.5)
}

// mean is that of the samples taken since begin, in ns. A set-up is a
// fixed amount of work timed as a whole, so everything that stops the
// machine is in it, as it is in the reference's mean and not in its median.
func (c *calibrator) mean() float64 {
	var sum float64
	for _, t := range c.times {
		sum += float64(t)
	}
	return sum / float64(len(c.times))
}

// measure runs the reference for about the given time on its own.
func (c *calibrator) measure(kind refKind, length time.Duration) float64 {
	c.begin()
	c.slice(kind, length)
	return c.median()
}

// isolate confines the process to one CPU and keeps that CPU awake with
// a lowest-priority busy process, until restore is called. The handoff
// workload needs both. Its operation is a chain of a dozen wake-ups
// between goroutines that are otherwise idle, and on this VM the cost of
// one wake-up depends on things the code under test does not control:
// across CPUs it takes an inter-processor interrupt, which in a VM is an
// exit to the host, and whether the kernel and the Go scheduler keep the
// chain on one CPU changes every few seconds (per-window p50 150–290 µs
// within one run); and a CPU that went idle is descheduled by the host,
// after which the next wake-up costs 5 µs or 30 µs depending on the host's
// adaptive halt polling (p50 165 µs or 260 µs from run to run). On one
// CPU that never idles every wake-up takes the same short path (per-window
// p50 135–155 µs). The spinner yields to any other task at once and dies
// with this process.
func isolate() (restore func()) {
	var all, one [16]uint64 // CPU masks, 1024 CPUs
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(all), uintptr(unsafe.Pointer(&all))); errno != 0 {
		return func() {}
	}
	for i, word := range all {
		if word != 0 {
			one[i] = word & -word // the lowest CPU the process may use
			break
		}
	}
	setAffinity(&one)

	spin := exec.Command("sh", "-c", "while :; do :; done")
	spin.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	started, exited := make(chan error), make(chan struct{})
	go func() {
		// The parent-death signal follows the thread that forked, so that
		// thread is kept until the child is gone.
		runtime.LockOSThread()
		err := spin.Start() // inherits the one-CPU mask
		started <- err
		if err == nil {
			spin.Wait()
		}
		close(exited)
	}()
	if <-started == nil {
		syscall.Setpriority(syscall.PRIO_PROCESS, spin.Process.Pid, 19)
	} else {
		spin = nil
	}
	return func() {
		if spin != nil {
			spin.Process.Kill()
			<-exited
		}
		setAffinity(&all)
	}
}

// setAffinity applies a CPU mask to every thread of the process; threads
// started later inherit it from the thread that starts them.
func setAffinity(mask *[16]uint64) {
	for pass := 0; pass < 2; pass++ { // the second pass catches threads started during the first
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return
		}
		for _, t := range tasks {
			if tid, err := strconv.Atoi(t.Name()); err == nil {
				syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*mask), uintptr(unsafe.Pointer(mask)))
			}
		}
	}
}

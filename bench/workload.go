package main

import (
	"fmt"
	"os"
	"time"

	"convgpu"
	"convgpu/internal/obs"
)

// instance is one set-up of a workload: built, warmed, ready to be timed.
type instance interface {
	// measure drives the workload's operation in a closed loop for the
	// given time. With a tracer the operation is issued step by step
	// under spans.
	measure(d time.Duration, tr *tracer) measured
	// socketRig is the stack under the workload, nil when it has none.
	socketRig() *rig
	// finish stops the instance, checks its outputs, and removes its files.
	finish() error
	// layers reports, after finish, the per-layer metrics only this
	// workload can see.
	layers(rep *report)
}

// workload describes one entry of BENCHMARK.json's workload list.
type workload struct {
	name string
	// root names the span of one whole operation in the trace.
	root string
	// ref is the reference operation the workload's times are scaled by.
	ref   refKind
	start func(o *options) (instance, error)
	// extra marks a workload BENCHMARK.json does not list: it runs by hand
	// and under "-workload all", and no bound is set on it.
	extra bool
}

// handoff and contention are extra because nothing measurable beside them
// follows what this VM's neighbours do to them (bench/README.md, "Noise
// study"): the handoff touches enough memory to slow by a fifth when the
// host's caches are busy, which the ping-pong does not feel, and a replay
// pass follows the neighbours' memory traffic, which a sort does not.
var workloads = []workload{
	{"cycle", "cycle", refPingPong, func(o *options) (instance, error) { return startCycle(o, false) }, false},
	{"cycle_wal", "cycle", refFsync, func(o *options) (instance, error) { return startCycle(o, true) }, false},
	{"handoff", "handoff", refPingPong, startHandoff, true},
	{"contention", "pass", refSort, startContention, true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setups is how many times an untraced run sets the workload up; setup_s
// is their median, and only the last set-up is timed afterwards. Seven
// short ones, because a neighbour's burst then spoils two or three and
// not the median. setupRef is the reference work after each, which
// scales it.
const (
	setups   = 7
	setupRef = 50 * time.Millisecond
)

// runEndToEnd is the untraced run: every end-to-end metric.
func runEndToEnd(w workload, o *options) (result, *report, error) {
	rep := newReport(endToEnd)
	var inst instance
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if inst != nil {
			if err := inst.finish(); err != nil {
				return result{}, nil, fmt.Errorf("finish set-up %d: %w", i, err)
			}
		}
		start := time.Now()
		var err error
		if inst, err = w.start(o); err != nil {
			return result{}, nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		// Set-up is scaled to reference speed like every other time.
		took := time.Since(start).Seconds()
		o.calib.measure(w.ref, setupRef)
		setupTimes = append(setupTimes, took*ref0[w.ref]/o.calib.mean())
	}
	m := inst.measure(o.timed, nil)
	err := inst.finish()
	fmt.Printf("# as the clock read: op p50 %.4g us, p90 %.4g us over %d windows; reference %.4g us, scaled to %.4g us\n",
		m.rawP50us, m.rawP90us, m.windows, m.refus, ref0[w.ref]/1e3)
	rep.set("op_p50_us", m.p50us, m.samples)
	rep.set("op_p90_us", m.p90us, m.samples)
	rep.set("setup_s", median(setupTimes), len(setupTimes))
	rep.set("rss_mib", m.rssMiB, m.windows)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: output check failed:", err)
	}
	return rep.result(err == nil && m.attempted > 0, m.attempted, m.failed), rep, nil
}

// counters is a reading of everything the traced run differences around
// its timed phase.
type counters struct {
	proc   procStat
	frames int64 // daemon-side wire frames, both codecs, both directions
	events int64 // scheduler events of every kind
	wal    convgpu.WALStats
}

func readCounters(r *rig) counters {
	c := counters{proc: readProc()}
	if r == nil {
		return c
	}
	o := r.st.Observability()
	for _, p := range o.Registry().Snapshot() {
		if p.Name == obs.MetricWireFrames && p.Labels["side"] == "daemon" {
			c.frames += p.Value
		}
	}
	for _, n := range o.EventCounts() {
		c.events += int64(n)
	}
	c.wal, _ = r.st.WALStats()
	return c
}

// runTraced is the traced run: every per-layer metric. The first quarter
// of the timed phase runs untraced so that the cost of tracing is itself
// a number; end-to-end metrics never come from here.
func runTraced(w workload, o *options) (result, *report, error) {
	rep := newReport(perLayer)
	if err := leafProbes(o, rep); err != nil {
		return result{}, nil, fmt.Errorf("layer probes: %w", err)
	}
	inst, err := w.start(o)
	if err != nil {
		return result{}, nil, fmt.Errorf("set-up: %w", err)
	}
	plain := inst.measure(o.timed/4, nil)

	tr := newTracer()
	before := readCounters(inst.socketRig())
	m := inst.measure(o.timed-o.timed/4, tr)
	after := readCounters(inst.socketRig())

	ops := float64(max(m.attempted, 1))
	n := int(m.attempted)
	dp := func(a, b int64) float64 { return float64(b-a) / ops }
	rep.set("ipc.frames_per_op", dp(before.frames, after.frames), n)
	rep.set("core.events_per_op", dp(before.events, after.events), n)
	rep.set("wal.appends_per_op", dp(int64(before.wal.Appends), int64(after.wal.Appends)), n)
	rep.set("wal.fsyncs_per_op", dp(int64(before.wal.Syncs), int64(after.wal.Syncs)), n)
	rep.set("wal.bytes_per_op", dp(before.wal.SizeBytes, after.wal.SizeBytes), n)
	rep.set("proc.cpu_us_per_op", float64((after.proc.cpu-before.proc.cpu).Microseconds())/ops, n)
	rep.set("proc.allocs_per_op", dp(int64(before.proc.mallocs), int64(after.proc.mallocs)), n)
	rep.set("proc.alloc_bytes_per_op", dp(int64(before.proc.bytes), int64(after.proc.bytes)), n)
	rep.set("proc.gc_cycles", float64(after.proc.gcs-before.proc.gcs), 1)
	rep.set("proc.rw_syscalls_per_op", dp(before.proc.rwSyscall, after.proc.rwSyscall), n)
	rep.set("proc.ctxsw_per_op", dp(before.proc.ctxsw, after.proc.ctxsw), n)
	rep.set("proc.rss_peak_mib", peakRSSMiB(), 1)
	if total := after.proc.jiffies - before.proc.jiffies; total > 0 {
		rep.set("host.steal_share", float64(after.proc.steal-before.proc.steal)/float64(total), int(total))
	}
	rep.set("host.stall_share", m.stallShare, m.samples)
	rep.set("run.op_p50_raw_us", m.rawP50us, m.samples)
	rep.set("run.reference_us", m.refus, m.windows)
	rep.set("trace.op_p50_us", m.p50us, m.samples)
	rep.set("trace.op_p99_us", m.p99us, m.samples)
	rep.set("trace.ops_per_s", m.opsPerSec, m.samples)
	if plain.p50us > 0 {
		rep.set("trace.overhead_share", m.p50us/plain.p50us-1, plain.samples)
	}
	err = inst.finish()
	inst.layers(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: output check failed:", err)
	}

	selfTimes(tr.spans)
	cov := coverage(tr.spans, w.root)
	rep.set("trace.cycle_coverage", cov, len(tr.spans))
	for layer, ns := range selfByLayer(tr.spans) {
		fmt.Printf("# self time  %-10s %.3f ms\n", layer, float64(ns)/1e6)
	}
	if werr := tr.write(o.spansPath); werr != nil {
		return result{}, nil, werr
	}
	fmt.Printf("# %d spans written to %s (%d more not kept)\n", len(tr.spans), o.spansPath, tr.dropped)
	if cov < 0.9 || cov > 1 {
		fmt.Fprintf(os.Stderr, "bench: child spans cover %.3f of the %q spans, want 0.9 to 1\n", cov, w.root)
		err = fmt.Errorf("trace coverage")
	}
	attempted, failed := plain.attempted+m.attempted, plain.failed+m.failed
	return rep.result(err == nil && attempted > 0, attempted, failed), rep, nil
}

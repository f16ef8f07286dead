package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// The names below are the benchmark's contract with BENCHMARK.json; the
// tests hold the two to each other in both directions.

type decl struct{ name, unit string }

// endToEnd is printed by every untraced run.
var endToEnd = []decl{
	{"op_p50_us", "us"},
	{"op_p90_us", "us"},
	{"setup_s", "s"},
	{"rss_mib", "MiB"},
}

// perLayer is printed by every traced run; a metric of a layer the
// workload does not use reads 0 with n=0.
var perLayer = []decl{
	// wrapper: the wrapped malloc+free as the program sees it (cycle, cycle_wal).
	{"wrapper.malloc_p50_us", "us"},
	{"wrapper.malloc_p99_us", "us"},
	{"wrapper.free_p50_us", "us"},
	{"wrapper.vs_manual_us", "us"},
	{"wrapper.cycle_p99_us", "us"},
	{"wrapper.cycle_max_us", "us"},
	{"wrapper.cycles_per_s", "1/s"},
	// ipc: the transport against a no-op handler.
	{"ipc.echo_rtt_p50_us", "us"},
	{"ipc.echo_rtt_json_p50_us", "us"},
	{"ipc.echo_rtt_depth2_us", "us"},
	{"ipc.dial_negotiate_us", "us"},
	{"ipc.frames_per_op", "count"},
	// protocol: the codecs on the alloc request and its reply.
	{"protocol.binary_encode_ns", "ns"},
	{"protocol.binary_decode_ns", "ns"},
	{"protocol.json_encode_ns", "ns"},
	{"protocol.json_decode_ns", "ns"},
	// daemon: round trips on the container and control sockets.
	{"daemon.alloc_rtt_p50_us", "us"},
	{"daemon.confirm_rtt_p50_us", "us"},
	{"daemon.free_rtt_p50_us", "us"},
	{"daemon.meminfo_rtt_p50_us", "us"},
	{"daemon.self_us", "us"},
	{"daemon.register_rtt_p50_us", "us"},
	{"daemon.close_rtt_p50_us", "us"},
	{"daemon.resume_dispatch_us", "us"},
	{"daemon.lost_wakeups", "count"},
	// core: the scheduler with no transport.
	{"core.request_alloc_ns", "ns"},
	{"core.confirm_ns", "ns"},
	{"core.free_ns", "ns"},
	{"core.suspend_ns", "ns"},
	{"core.close_admit_ns", "ns"},
	{"core.events_per_op", "count"},
	// policy, multigpu: one decision.
	{"policy.pick_32_ns", "ns"},
	{"policy.pick_3200_ns", "ns"},
	{"multigpu.place_ns", "ns"},
	// wal: the log alone, then what the workload made it do.
	{"wal.append_nosync_us", "us"},
	{"wal.append_fsync_p50_us", "us"},
	{"wal.append_fsync_p99_us", "us"},
	{"wal.appends_per_op", "count"},
	{"wal.fsyncs_per_op", "count"},
	{"wal.bytes_per_op", "count"},
	{"wal.open_replay_s", "s"},
	// nvdocker, container, plugin: one container's life.
	{"nvdocker.create_p50_us", "us"},
	{"container.start_us", "us"},
	{"plugin.exit_to_close_us", "us"},
	// load: the replay harness (contention).
	{"load.generate_s", "s"},
	{"load.pass_s_p50", "s"},
	{"load.pass_s_max", "s"},
	{"load.admits_total", "count"},
	{"load.deadline_missed", "count"},
	{"load.slo_attainment", "ratio"},
	{"load.goodput_per_vs", "1/virtual-s"},
	{"load.suspend_wait_p99_vs", "virtual-s"},
	{"load.makespan_vs", "virtual-s"},
	// proc, host: the runtime and the machine under the timed phase.
	{"proc.cpu_us_per_op", "us"},
	{"proc.allocs_per_op", "count"},
	{"proc.alloc_bytes_per_op", "count"},
	{"proc.gc_cycles", "count"},
	{"proc.rw_syscalls_per_op", "count"},
	{"proc.ctxsw_per_op", "count"},
	{"proc.rss_peak_mib", "MiB"},
	{"host.steal_share", "ratio"},
	{"host.stall_share", "ratio"},
	// run: what the scaling to reference speed was applied to.
	{"run.op_p50_raw_us", "us"},
	{"run.reference_us", "us"},
	// trace: the traced operation and what tracing costs.
	{"trace.op_p50_us", "us"},
	{"trace.op_p99_us", "us"},
	{"trace.ops_per_s", "1/s"},
	{"trace.cycle_coverage", "ratio"},
	{"trace.overhead_share", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects one run's metrics against a declared list.
type report struct {
	decls  []decl
	values map[string]float64
	counts map[string]int
}

func newReport(decls []decl) *report {
	return &report{decls: decls, values: map[string]float64{}, counts: map[string]int{}}
}

// set records a metric with the number of samples behind it.
func (r *report) set(name string, value float64, n int) {
	for _, d := range r.decls {
		if d.name == name {
			r.values[name], r.counts[name] = value, n
			return
		}
	}
	panic("bench: metric not declared: " + name)
}

// print writes every declared metric as "name unit value n=samples".
func (r *report) print(w io.Writer) {
	for _, d := range r.decls {
		fmt.Fprintf(w, "%-28s %-12s %.6g n=%d\n", d.name, d.unit, r.values[d.name], r.counts[d.name])
	}
}

func (r *report) result(correct bool, attempted, failed int64) result {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range r.decls {
		res.Metrics[d.name] = metricValue{r.values[d.name], d.unit}
	}
	return res
}

// benchmarkFile is BENCHMARK.json as far as this program reads it.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

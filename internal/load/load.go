// Package load is the open-loop load-generation and evaluation harness.
//
// The paper's Figure 7/8 experiments are closed-loop: a fixed number of
// batch containers arrive on a fixed cadence, and the metric is the
// finish time of the whole cohort. Production GPU sharing is open-loop:
// requests keep arriving whether or not the scheduler has caught up, and
// the interesting numbers are the tails — p99/p999 admission latency,
// suspend-wait, the fraction of deadline-carrying requests that met
// their deadline, and goodput as offered load rises past capacity.
//
// This package generates open-loop request streams (Poisson, bursty
// MMPP-2, diurnal-ramp arrival processes over a workload library of
// deadline-carrying inference bursts, memcpy-heavy streaming jobs,
// long-lived training jobs with periodic reallocation, and the paper's
// batch jobs) and replays them against the scheduler on two paths:
//
//   - in-process: the scheduler core driven directly under a virtual
//     clock, by the repository's one event loop, sim.Replay — this
//     package owns the scenarios, not an engine. Deterministic,
//     replayable by seed, byte-identical reports;
//   - wire: the full daemon + UNIX-socket IPC stack under the real
//     clock with a compressed timescale — tails include real socket,
//     encode and wakeup costs, at the price of run-to-run jitter.
//
// The reporter aggregates per-request outcomes into SLO tails and
// goodput-vs-offered-load curves per (wake policy × placement policy),
// rendered as BENCH_load.{json,txt} by cmd/convgpu-load.
package load

import (
	"fmt"
	"math/rand"
	"time"

	"convgpu/internal/workload"
)

// Class is a request class of the workload library.
type Class int

const (
	// ClassInference models a DNN-inference burst: a small, short-lived
	// allocation carrying a tight completion deadline.
	ClassInference Class = iota
	// ClassStreaming models a memcpy-heavy streaming job: a mid-sized
	// allocation whose runtime is dominated by the two PCIe transfers.
	ClassStreaming
	// ClassTraining models a long-lived training job that periodically
	// frees and re-allocates its working set (checkpoint/resize cycles),
	// re-entering admission each cycle.
	ClassTraining
	// ClassBatch is the paper's Table III sample program.
	ClassBatch
)

// String names the class for reports.
func (c Class) String() string {
	switch c {
	case ClassInference:
		return "inference"
	case ClassStreaming:
		return "streaming"
	case ClassTraining:
		return "training"
	case ClassBatch:
		return "batch"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Classes lists the workload library in declaration order.
func Classes() []Class {
	return []Class{ClassInference, ClassStreaming, ClassTraining, ClassBatch}
}

// Request is one open-loop container arrival. The deadline is carried
// as a slack factor over the request's ideal runtime rather than an
// absolute instant, so that it scales with the wire path's compressed
// timebase: deadlineOf computes
//
//	deadline = arrival + startup + slack*(cycles*(service+copies)) + grace
//
// identically on both paths.
type Request struct {
	// Seq numbers the arrival (0-based).
	Seq int
	// Class is the workload class.
	Class Class
	// Type supplies the container's GPU memory limit and allocation size
	// (Table III).
	Type workload.ContainerType
	// Arrival is the offset from run start.
	Arrival time.Duration
	// Service is the compute time per allocation cycle, excluding the
	// PCIe copies the engine adds from the allocation size.
	Service time.Duration
	// Cycles is how many allocate→compute→free cycles the container
	// runs (1 for everything but training).
	Cycles int
	// Slack scales the ideal runtime into the deadline budget.
	Slack float64
	// Grace is the fixed additive deadline headroom.
	Grace time.Duration
}

// ArrivalKind selects the arrival process of a Scenario.
type ArrivalKind string

// Arrival processes. Uniform is the paper's fixed cadence; the others
// extend workload.GeneratePoissonTrace toward open-loop stress shapes.
const (
	ArrivalUniform ArrivalKind = "uniform"
	ArrivalPoisson ArrivalKind = "poisson"
	ArrivalBursty  ArrivalKind = "bursty"
	ArrivalDiurnal ArrivalKind = "diurnal"
)

// MixEntry weights one class within a scenario's request mix.
type MixEntry struct {
	Class  Class
	Weight int
}

// DefaultMix is the evaluation mix: inference-heavy with streaming and
// batch background and a trickle of long training jobs.
func DefaultMix() []MixEntry {
	return []MixEntry{
		{ClassInference, 5},
		{ClassStreaming, 2},
		{ClassBatch, 2},
		{ClassTraining, 1},
	}
}

// Scenario describes one open-loop request stream. The same scenario
// (same seed) always generates the same []Request.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string
	// Containers is the number of arrivals.
	Containers int
	// Seed drives every random draw.
	Seed int64
	// Arrival selects the arrival process (default Poisson).
	Arrival ArrivalKind
	// MeanSpacing is the mean inter-arrival time (default the paper's
	// 5 s cadence).
	MeanSpacing time.Duration
	// Burst is the MMPP burst-state rate multiplier (bursty only;
	// default 8).
	Burst float64
	// Period is the diurnal period (diurnal only; default 100 arrivals
	// worth of MeanSpacing).
	Period time.Duration
	// Amplitude is the diurnal rate swing in [0,1) (diurnal only;
	// default 0.8).
	Amplitude float64
	// Mix weights the request classes (default DefaultMix).
	Mix []MixEntry
}

func (s Scenario) withDefaults() Scenario {
	if s.Arrival == "" {
		s.Arrival = ArrivalPoisson
	}
	if s.MeanSpacing == 0 {
		s.MeanSpacing = workload.DefaultSpacing
	}
	if s.Burst == 0 {
		s.Burst = 8
	}
	if s.Period == 0 {
		s.Period = 100 * s.MeanSpacing
	}
	if s.Amplitude == 0 {
		s.Amplitude = 0.8
	}
	if len(s.Mix) == 0 {
		s.Mix = DefaultMix()
	}
	return s
}

// Generate produces the scenario's request stream. Arrival instants
// come from the selected workload trace generator; classes, types,
// service times and deadline budgets are drawn from an independent
// stream seeded by Seed, so the same seed yields the same requests on
// every run and machine.
func (s Scenario) Generate() ([]Request, error) {
	s = s.withDefaults()
	if s.Containers <= 0 {
		return nil, fmt.Errorf("load: scenario %q with %d containers", s.Name, s.Containers)
	}
	var trace []workload.TraceEntry
	switch s.Arrival {
	case ArrivalUniform:
		trace = workload.GenerateTrace(s.Containers, s.MeanSpacing, s.Seed)
	case ArrivalPoisson:
		trace = workload.GeneratePoissonTrace(s.Containers, s.MeanSpacing, s.Seed)
	case ArrivalBursty:
		trace = workload.GenerateBurstyTrace(s.Containers, s.MeanSpacing, s.Burst, s.Seed)
	case ArrivalDiurnal:
		trace = workload.GenerateDiurnalTrace(s.Containers, s.MeanSpacing, s.Period, s.Amplitude, s.Seed)
	default:
		return nil, fmt.Errorf("load: unknown arrival process %q", s.Arrival)
	}
	rng := rand.New(rand.NewSource(s.Seed ^ 0x10adc0de))
	types := workload.Types()
	var weights int
	for _, m := range s.Mix {
		weights += m.Weight
	}
	if weights <= 0 {
		return nil, fmt.Errorf("load: scenario %q mix has no weight", s.Name)
	}
	out := make([]Request, s.Containers)
	for i, e := range trace {
		r := Request{Seq: i, Arrival: e.Arrival, Cycles: 1}
		pick := rng.Intn(weights)
		for _, m := range s.Mix {
			if pick < m.Weight {
				r.Class = m.Class
				break
			}
			pick -= m.Weight
		}
		switch r.Class {
		case ClassInference:
			// nano..small; tens of milliseconds of compute; tight SLO.
			r.Type = types[rng.Intn(3)]
			r.Service = time.Duration(20+rng.Intn(100)) * time.Millisecond
			r.Slack = 2
			r.Grace = 250 * time.Millisecond
		case ClassStreaming:
			// medium/large; compute negligible next to the two copies.
			r.Type = types[3+rng.Intn(2)]
			r.Service = time.Duration(30+rng.Intn(40)) * time.Millisecond
			r.Slack = 3
			r.Grace = 500 * time.Millisecond
		case ClassTraining:
			// large/xlarge; seconds per cycle; several realloc cycles.
			r.Type = types[4+rng.Intn(2)]
			r.Service = time.Duration(2e9 + rng.Int63n(8e9))
			r.Cycles = 3 + rng.Intn(4)
			r.Slack = 1.5
			r.Grace = 1 * time.Second
		case ClassBatch:
			// The trace generator already drew a uniform Table III type.
			r.Type = e.Type
			r.Service = r.Type.SampleDuration()
			r.Slack = 2
			r.Grace = 1 * time.Second
		}
		out[i] = r
	}
	return out, nil
}

// ScaleRequests returns a copy of reqs with every duration multiplied
// by factor — the wire path's compressed timescale (factor < 1) and the
// offered-load multiplier (arrivals divided by the multiplier are
// produced by scaling MeanSpacing at generation instead, so relative
// deadline budgets stay honest).
func ScaleRequests(reqs []Request, factor float64) []Request {
	if factor == 1 {
		return reqs
	}
	out := make([]Request, len(reqs))
	for i, r := range reqs {
		r.Arrival = scaleDur(r.Arrival, factor)
		r.Service = scaleDur(r.Service, factor)
		r.Grace = scaleDur(r.Grace, factor)
		out[i] = r
	}
	return out
}

func scaleDur(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

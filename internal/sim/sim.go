// Package sim is the discrete-event simulator that replays the paper's
// multi-container scheduling experiments (Section IV-C, Figures 7/8,
// Tables IV/V) against the real scheduler core in virtual time.
//
// The paper ran each configuration on hardware: containers arriving
// every five seconds, each running the sample program (allocate the
// type's maximum GPU memory, copy in, complement kernel, copy out) for
// 5–45 s, with 4–38 containers per run, four algorithms, six
// repetitions. That is hours of wall clock; here the identical event
// sequence — arrivals, allocation requests, suspensions, admissions,
// completions, close signals — executes against core.State with a
// virtual clock, so a full sweep runs in milliseconds while exercising
// the same scheduling decisions.
//
// The event loop itself (engine.go: Replay, and the K20m testbed's
// physics) is the repository's one virtual-time engine: Run/RunWith/Sweep
// put the paper's traces on it, one single-cycle job per container, and
// package load its open-loop scenarios.
package sim

import (
	"context"
	"fmt"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/clock"
	"convgpu/internal/core"
	"convgpu/internal/metrics"
	"convgpu/internal/policy"
	"convgpu/internal/workload"
)

// Config parameterizes one simulated run.
type Config struct {
	// Capacity is the schedulable GPU memory (default: the K20m's 5 GiB).
	// For RunWith over a multi-device backend it is only the utilization
	// denominator and should be set to the aggregate capacity.
	Capacity bytesize.Size
	// Algorithm names the wake-order policy, any name or alias
	// policy.NewWake knows (default "fifo").
	Algorithm string
	// AlgSeed seeds the Random algorithm.
	AlgSeed int64
	// PersistentGrants selects the non-reclaiming grant semantics
	// (core.Config.PersistentGrants) for the ablation benches.
	PersistentGrants bool
	// FaultTolerant enables the rescue pass of the authors' prior
	// study [10] (core.Config.FaultTolerant).
	FaultTolerant bool
}

func (c Config) withDefaults() Config {
	if c.Capacity == 0 {
		c.Capacity = DeviceCapacity
	}
	if c.Algorithm == "" {
		c.Algorithm = core.AlgFIFO
	}
	return c
}

// ContainerResult describes one container's simulated life.
type ContainerResult struct {
	ID      core.ContainerID
	Type    string
	Arrival time.Duration // offset from run start
	JobResult
}

// Result describes one simulated run.
type Result struct {
	// FinishTime is when the last container completed, from run start —
	// the paper's "finished time of all containers".
	FinishTime time.Duration
	// AvgSuspended averages suspension across all containers (including
	// never-suspended ones), the paper's Fig. 8 metric.
	AvgSuspended time.Duration
	// MaxSuspended is the worst per-container suspension.
	MaxSuspended time.Duration
	// SuspendedCount is how many containers were ever suspended.
	SuspendedCount int
	// AvgUtilization is the time-averaged fraction of schedulable GPU
	// memory in use over the run — the quantity behind the paper's
	// explanation that Best-Fit wins because it "maximizes the GPU
	// memory throughput".
	AvgUtilization float64
	// Stalled reports that the run wedged: suspended containers remained
	// with no event able to release them (the deadlock the unmanaged
	// system risks; with the paper's algorithms it indicates pathological
	// partial grants).
	Stalled bool
	// Containers holds per-container detail in arrival order.
	Containers []ContainerResult
	// SuspendedByType averages suspension per Table III type — the
	// starvation profile: which sizes wait under a given algorithm.
	SuspendedByType map[string]time.Duration
}

// Run replays a trace against a fresh single-GPU scheduler.
func Run(trace []workload.TraceEntry, cfg Config) (Result, error) {
	return RunContext(context.Background(), trace, cfg)
}

// RunContext is Run with cancellation, checked between simulated events.
func RunContext(ctx context.Context, trace []workload.TraceEntry, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	alg, err := policy.NewWake(cfg.Algorithm, policy.Config{Seed: cfg.AlgSeed})
	if err != nil {
		return Result{}, err
	}
	clk := clock.NewManual()
	st, err := core.New(core.Config{
		Capacity:         cfg.Capacity,
		Algorithm:        alg,
		Clock:            clk,
		PersistentGrants: cfg.PersistentGrants,
		FaultTolerant:    cfg.FaultTolerant,
	})
	if err != nil {
		return Result{}, err
	}
	return RunWithContext(ctx, trace, st, clk, cfg)
}

// RunWith replays a trace against an existing backend whose schedulers
// share the given manual clock.
func RunWith(trace []workload.TraceEntry, st Backend, clk *clock.Manual, cfg Config) (Result, error) {
	return RunWithContext(context.Background(), trace, st, clk, cfg)
}

// RunWithContext is RunWith with cancellation, checked between events:
// the trace becomes one single-cycle Job per container, Replay runs them
// checking the scheduler's invariants and sampling its usage after every
// event, and the per-job results are folded into the paper's metrics.
func RunWithContext(ctx context.Context, trace []workload.TraceEntry, st Backend, clk *clock.Manual, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	start := clk.Now()
	jobs := make([]Job, len(trace))
	for i, e := range trace {
		jobs[i] = Job{
			ID:      core.ContainerID(fmt.Sprintf("c%03d-%s", i, e.Type.Name)),
			PID:     10000 + i, // the (unique) host pid of the container's single process
			Limit:   e.Type.GPUMemory,
			Alloc:   e.Type.AllocSize(),
			Arrival: e.Arrival,
			Cycles:  1,
			// The complement kernel plus the two PCIe transfers.
			Runtime: e.Type.SampleDuration() + CopyTime(e.Type.AllocSize()),
		}
	}

	// Utilization integral: Σ used(t) dt, sampled between events.
	var usedIntegral float64 // byte-seconds
	prevTime := start
	prevUsed := st.TotalUsed()
	done, err := Replay(ctx, jobs, st, clk, nil, func() error {
		now := clk.Now()
		if dt := now.Sub(prevTime); dt > 0 {
			usedIntegral += float64(prevUsed) * dt.Seconds()
		}
		if err := st.CheckInvariants(); err != nil {
			return err
		}
		prevTime = now
		prevUsed = st.TotalUsed()
		return nil
	})
	if err != nil {
		return Result{}, err
	}

	var res Result
	suspended := make([]time.Duration, len(done))
	byType := map[string][]time.Duration{}
	for i, d := range done {
		if !d.Completed {
			res.Stalled = true
		}
		res.FinishTime = max(res.FinishTime, d.Finished)
		res.MaxSuspended = max(res.MaxSuspended, d.Suspended)
		if d.Suspended > 0 {
			res.SuspendedCount++
		}
		typ := trace[i].Type.Name
		suspended[i] = d.Suspended
		byType[typ] = append(byType[typ], d.Suspended)
		res.Containers = append(res.Containers, ContainerResult{ID: jobs[i].ID, Type: typ, Arrival: trace[i].Arrival, JobResult: d})
	}
	res.AvgSuspended = metrics.MeanDuration(suspended)
	if span := clk.Since(start).Seconds(); span > 0 && cfg.Capacity > 0 {
		res.AvgUtilization = usedIntegral / (float64(cfg.Capacity) * span)
	}
	res.SuspendedByType = make(map[string]time.Duration, len(byType))
	for typ, ds := range byType {
		res.SuspendedByType[typ] = metrics.MeanDuration(ds)
	}
	return res, nil
}

// Sweep runs the paper's full Fig. 7/8 parameter sweep: for every
// container count and every algorithm, `reps` runs with distinct trace
// seeds (the same seed set across algorithms, as in the paper where all
// four algorithms face comparable random loads), averaging finish and
// suspension times.
type Sweep struct {
	// Counts are the container counts (paper: 4,6,...,38).
	Counts []int
	// Algorithms are algorithm names (paper: fifo, bestfit, recentuse,
	// random).
	Algorithms []string
	// Reps is the repetitions per cell (paper: 6).
	Reps int
	// BaseSeed derives per-rep trace seeds.
	BaseSeed int64
	// Spacing is the arrival spacing (paper: 5 s).
	Spacing time.Duration
	// Config is the per-run configuration (capacity etc.).
	Config Config
}

// DefaultSweep returns the paper's sweep dimensions.
func DefaultSweep() Sweep {
	var counts []int
	for n := 4; n <= 38; n += 2 {
		counts = append(counts, n)
	}
	return Sweep{
		Counts:     counts,
		Algorithms: core.AlgorithmNames(),
		Reps:       6,
		BaseSeed:   20170712,
		Spacing:    workload.DefaultSpacing,
	}
}

// Cell is one (algorithm, count) aggregate.
type Cell struct {
	Algorithm    string
	Count        int
	FinishTime   time.Duration // mean over reps
	AvgSuspended time.Duration // mean over reps
	Utilization  float64       // mean time-averaged memory utilization
	Stalls       int           // runs that wedged
}

// SweepResult holds all cells plus the dimensions for table building.
type SweepResult struct {
	Sweep Sweep
	Cells map[string]map[int]Cell // algorithm -> count -> cell
}

// Run executes the sweep.
func (s Sweep) Run() (*SweepResult, error) {
	if s.Reps <= 0 {
		s.Reps = 1
	}
	if s.Spacing == 0 {
		s.Spacing = workload.DefaultSpacing
	}
	out := &SweepResult{Sweep: s, Cells: make(map[string]map[int]Cell)}
	for _, alg := range s.Algorithms {
		out.Cells[alg] = make(map[int]Cell)
	}
	for _, n := range s.Counts {
		for rep := 0; rep < s.Reps; rep++ {
			seed := s.BaseSeed + int64(n)*1000 + int64(rep)
			trace := workload.GenerateTrace(n, s.Spacing, seed)
			for _, alg := range s.Algorithms {
				cfg := s.Config
				cfg.Algorithm = alg
				cfg.AlgSeed = seed
				r, err := Run(trace, cfg)
				if err != nil {
					return nil, fmt.Errorf("sim: n=%d rep=%d alg=%s: %w", n, rep, alg, err)
				}
				cell := out.Cells[alg][n]
				cell.Algorithm = alg
				cell.Count = n
				cell.FinishTime += r.FinishTime / time.Duration(s.Reps)
				cell.AvgSuspended += r.AvgSuspended / time.Duration(s.Reps)
				cell.Utilization += r.AvgUtilization / float64(s.Reps)
				if r.Stalled {
					cell.Stalls++
				}
				out.Cells[alg][n] = cell
			}
		}
	}
	return out, nil
}

// FinishTable renders the sweep as the paper's Table IV.
func (r *SweepResult) FinishTable() *metrics.Table {
	return r.table("Table IV: finished time of given number of containers (sec)", "sec", func(c Cell) float64 {
		return c.FinishTime.Seconds()
	})
}

// SuspendTable renders the sweep as the paper's Table V.
func (r *SweepResult) SuspendTable() *metrics.Table {
	return r.table("Table V: average suspended time of given number of containers (sec)", "sec", func(c Cell) float64 {
		return c.AvgSuspended.Seconds()
	})
}

// UtilizationTable renders the measured time-averaged memory
// utilization (%) — the quantity behind the paper's throughput
// explanation of Best-Fit's win.
func (r *SweepResult) UtilizationTable() *metrics.Table {
	return r.table("Measured GPU memory utilization (%), time-averaged per run", "%", func(c Cell) float64 {
		return c.Utilization * 100
	})
}

func (r *SweepResult) table(title, unit string, value func(Cell) float64) *metrics.Table {
	t := &metrics.Table{Title: title, ColHeader: "Number of Containers"}
	for _, n := range r.Sweep.Counts {
		t.Cols = append(t.Cols, fmt.Sprintf("%d", n))
	}
	labels := map[string]string{
		core.AlgFIFO:      "FIFO",
		core.AlgBestFit:   "BF",
		core.AlgRecentUse: "RU",
		core.AlgRandom:    "Rand",
	}
	for _, alg := range r.Sweep.Algorithms {
		var cells []float64
		for _, n := range r.Sweep.Counts {
			cells = append(cells, value(r.Cells[alg][n]))
		}
		label := labels[alg]
		if label == "" {
			label = alg
		}
		t.AddRow(fmt.Sprintf("%s (%s)", label, unit), cells)
	}
	return t
}

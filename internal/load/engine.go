package load

import (
	"context"
	"fmt"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/clock"
	"convgpu/internal/core"
	"convgpu/internal/obs"
	"convgpu/internal/policy"
	"convgpu/internal/sim"
)

// checkEvery is the scheduler-invariant check cadence in events (the
// check scans every container, too much per event at thousands of them);
// invariants are checked once more at the end of the run.
const checkEvery = 512

// Config parameterizes one harness run: the scheduler under test. The
// physics the request stream is replayed with are sim's constants.
type Config struct {
	// Wake is the wake-order policy name (any of policy.WakeNames or an
	// alias; default fifo).
	Wake string
	// Place is the placement policy name (any of policy.PlaceNames or an
	// alias; default leastloaded).
	Place string
	// Devices is the GPU count (default 4).
	Devices int
	// Capacities optionally gives per-device capacities (MIG-style
	// heterogeneous topology) in place of sim.DeviceCapacity each.
	Capacities []bytesize.Size
	// Seed seeds randomized policies.
	Seed int64
	// Obs optionally receives admit-latency, deadline and goodput
	// telemetry while the run executes.
	Obs *obs.Observability
}

func (c Config) withDefaults() Config {
	if c.Devices == 0 {
		c.Devices = 4
	}
	return c
}

// newBackend builds the scheduler under test through the one assembly
// (policy.NewScheduler).
func newBackend(cfg Config, clk clock.Clock) (core.Scheduler, error) {
	return policy.NewScheduler(policy.Spec{
		Devices:    cfg.Devices,
		Capacity:   sim.DeviceCapacity,
		Capacities: cfg.Capacities,
		Wake:       cfg.Wake,
		Place:      cfg.Place,
		Seed:       cfg.Seed,
		Device:     core.Config{Clock: clk},
	})
}

// Outcome is one request's observed life.
type Outcome struct {
	Seq     int
	Class   string
	Type    string
	Arrival time.Duration
	// Finished is the completion offset from run start (0 if never).
	Finished time.Duration
	// Deadline is the absolute deadline offset the engine derived.
	Deadline time.Duration
	// SuspendWait is the container's cumulative suspended time.
	SuspendWait time.Duration
	// AdmitWaitMax is the worst admission wait across the request's
	// allocation cycles.
	AdmitWaitMax time.Duration
	// Allocs counts allocation cycles performed.
	Allocs      int
	Completed   bool
	DeadlineMet bool
}

// RunResult is one harness run's raw measurements.
type RunResult struct {
	// Outcomes holds per-request detail in arrival order.
	Outcomes []Outcome
	// AdmitWaits holds every allocation's admission wait (zero when
	// admitted on first try), the population behind the latency tails.
	AdmitWaits []time.Duration
	// Elapsed is run start to last completion: virtual time on the
	// in-process path, compressed real time on the wire path.
	Elapsed time.Duration
	// Stalled reports requests left suspended with no event able to
	// release them.
	Stalled bool
}

// outcomeOf opens a request's Outcome with what is known on arrival;
// timeScale is deadlineOf's.
func outcomeOf(r Request, timeScale float64) Outcome {
	return Outcome{Seq: r.Seq, Class: r.Class.String(), Type: r.Type.Name, Arrival: r.Arrival, Deadline: deadlineOf(r, timeScale)}
}

// complete records the request's completion at offset finished.
func (o *Outcome) complete(finished time.Duration, ob *obs.Observability) {
	o.Completed, o.Finished = true, finished
	o.DeadlineMet = finished <= o.Deadline
	if ob != nil {
		ob.ObserveDeadline(o.DeadlineMet)
	}
}

// settle derives the run-level facts from the per-request outcomes once
// Elapsed is known, and publishes the goodput.
func (res *RunResult) settle(ob *obs.Observability) {
	met := 0
	for _, o := range res.Outcomes {
		if !o.Completed {
			res.Stalled = true
		}
		if o.DeadlineMet {
			met++
		}
	}
	if ob != nil && res.Elapsed > 0 {
		ob.SetGoodput(float64(met) / res.Elapsed.Seconds())
	}
}

// deadlineOf derives a request's absolute deadline offset: startup plus
// slack times the ideal runtime (compute plus both PCIe copies per
// cycle) plus the fixed grace. The wire path hands in pre-scaled
// requests and its timescale, which compresses the two terms that come
// from the testbed's constants and not from the request; the in-process
// path's timescale is 1.
func deadlineOf(r Request, timeScale float64) time.Duration {
	ideal := time.Duration(r.Cycles) * (r.Service + scaleDur(sim.CopyTime(r.Type.AllocSize()), timeScale))
	return r.Arrival + scaleDur(sim.StartupDelay, timeScale) + time.Duration(r.Slack*float64(ideal)) + r.Grace
}

// RunInProcess replays the request stream against the scheduler core
// under a virtual clock: open-loop arrivals from the stream, admission
// and wake-ups from the real policies, service times advanced in
// virtual time — each request one sim.Job, the event loop sim.Replay.
// Deterministic — the same requests, Config and seed produce the
// identical RunResult.
func RunInProcess(ctx context.Context, reqs []Request, cfg Config) (RunResult, error) {
	cfg = cfg.withDefaults()
	clk := clock.NewManual()
	st, err := newBackend(cfg, clk)
	if err != nil {
		return RunResult{}, err
	}
	if cfg.Obs != nil {
		cfg.Obs.BindCore(st)
	}
	start := clk.Now()
	res := RunResult{Outcomes: make([]Outcome, len(reqs))}
	jobs := make([]sim.Job, len(reqs))
	for i, r := range reqs {
		jobs[i] = sim.Job{
			ID:      core.ContainerID(fmt.Sprintf("l%05d-%s", i, r.Class)),
			PID:     pidOf(i),
			Limit:   r.Type.GPUMemory,
			Alloc:   r.Type.AllocSize(),
			Arrival: r.Arrival,
			Cycles:  r.Cycles,
			Runtime: r.Service + sim.CopyTime(r.Type.AllocSize()),
		}
		res.Outcomes[i] = outcomeOf(r, 1)
	}

	events := 0
	done, err := sim.Replay(ctx, jobs, st, clk,
		func(job int, waited time.Duration) {
			res.AdmitWaits = append(res.AdmitWaits, waited)
			o := &res.Outcomes[job]
			o.AdmitWaitMax = max(o.AdmitWaitMax, waited)
			o.Allocs++
		},
		func() error {
			if events++; events%checkEvery != 0 {
				return nil
			}
			return st.CheckInvariants()
		})
	if err != nil {
		return RunResult{}, fmt.Errorf("load: %w", err)
	}
	if err := st.CheckInvariants(); err != nil {
		return RunResult{}, fmt.Errorf("load: at end of run: %w", err)
	}

	res.Elapsed = clk.Since(start)
	for i, d := range done {
		o := &res.Outcomes[i]
		o.SuspendWait = d.Suspended
		if d.Completed {
			o.complete(d.Finished, cfg.Obs)
		}
	}
	res.settle(cfg.Obs)
	return res, nil
}

// pidOf derives the simulated host pid of a request's single process.
func pidOf(idx int) int { return 20000 + idx }

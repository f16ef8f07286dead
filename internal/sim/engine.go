package sim

import (
	"container/heap"
	"context"
	"fmt"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/clock"
	"convgpu/internal/core"
)

// The physics of the paper's K20m testbed, declared once for every
// virtual-time replay in the repository. The per-process context charge
// is core.DefaultContextOverhead, which every scheduler built with a
// zero core.Config.ContextOverhead already uses.
const (
	// DeviceCapacity is one GPU's schedulable memory.
	DeviceCapacity = 5 * bytesize.GiB
	// PCIeBandwidth is the host<->device copy speed in bytes per second.
	PCIeBandwidth = 6 << 30
	// StartupDelay is the time between a container's start and its first
	// allocation call (CUDA initialization).
	StartupDelay = 100 * time.Millisecond
)

// CopyTime is the duration of the sample program's two PCIe transfers
// (host to device before the kernel, device to host after it).
func CopyTime(size bytesize.Size) time.Duration {
	return 2 * time.Duration(int64(size)*int64(time.Second)/PCIeBandwidth)
}

// Backend is the scheduler surface the replay drives. core.State
// implements it directly; the multi-GPU and cluster extensions adapt
// their schedulers to it so the same event loop replays their sweeps.
type Backend interface {
	Register(id core.ContainerID, limit bytesize.Size) (bytesize.Size, error)
	RequestAlloc(id core.ContainerID, pid int, size bytesize.Size) (core.AllocResult, error)
	ConfirmAlloc(id core.ContainerID, pid int, addr uint64, size bytesize.Size) error
	Free(id core.ContainerID, pid int, addr uint64) (bytesize.Size, core.Update, error)
	ProcessExit(id core.ContainerID, pid int) (bytesize.Size, core.Update, error)
	Close(id core.ContainerID) (bytesize.Size, core.Update, error)
	Info(id core.ContainerID) (core.ContainerInfo, error)
	TotalUsed() bytesize.Size
	CheckInvariants() error
}

// Job is one container's life in a replay: it registers at Arrival,
// makes its first allocation call StartupDelay later, and then runs
// Cycles rounds of allocate → compute for Runtime → free, re-entering
// admission between rounds; after the last round its process exits and
// the container closes. The caller chooses ID and PID: identifiers feed
// shard hashing and creation order, so they are part of a run's outcome.
type Job struct {
	ID      core.ContainerID
	PID     int
	Limit   bytesize.Size // the creation-time request
	Alloc   bytesize.Size // each cycle's allocation
	Arrival time.Duration // offset from the clock's reading when Replay starts
	Cycles  int           // allocation cycles; at least one is run
	Runtime time.Duration // one cycle, from admission to completion
}

// JobResult is what became of one Job.
type JobResult struct {
	Finished  time.Duration // offset from run start; 0 if never finished
	Suspended time.Duration // total time its allocation was paused, a wedged job's open interval included
	Completed bool          // false: left suspended with no event able to release it
}

type eventKind int

const (
	evArrive eventKind = iota
	evAllocate
	evFinish
)

type event struct {
	at   time.Time
	seq  int // FIFO tie-break
	kind eventKind
	job  int
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Replay is the repository's one virtual-time engine: it runs the jobs
// against st, whose schedulers share the manual clock clk, as a
// discrete-event simulation — arrivals, allocation requests,
// suspensions, admissions, completions, close signals — advancing clk
// from event to event, and reports what became of each job. A job still
// suspended when the events run out comes back with Completed false:
// that is a wedged scheduler, not an error.
//
// Both callbacks are optional. onAdmit sees every admission in event
// order with the time the request waited (zero when accepted at once).
// afterEvent runs after every event with the clock still at the event's
// instant — where a caller checks invariants or samples the backend at
// the cadence it can afford; its error aborts the run.
//
// The context is checked between events, so a caller's deadline bounds
// even a pathological run (virtual time never blocks, but huge job
// lists still cost real CPU).
func Replay(ctx context.Context, jobs []Job, st Backend, clk *clock.Manual,
	onAdmit func(job int, waited time.Duration), afterEvent func() error) ([]JobResult, error) {
	start := clk.Now()
	out := make([]JobResult, len(jobs))
	// Per job: the cycle it is in, that cycle's allocation and, while it
	// is suspended, the ticket it waits on and since when.
	progress := make([]struct {
		cycle  int
		addr   uint64
		ticket core.Ticket
		since  time.Time
	}, len(jobs))
	// Suspended jobs are keyed by container id: tickets are only unique
	// per core.State, and multi-GPU/cluster backends hold several.
	waiting := make(map[core.ContainerID]int)
	var events eventHeap
	seq := 0
	push := func(at time.Time, kind eventKind, job int) {
		seq++
		heap.Push(&events, event{at: at, seq: seq, kind: kind, job: job})
	}
	for i, j := range jobs {
		push(start.Add(j.Arrival), evArrive, i)
	}

	var nextAddr uint64 = 0x1000
	// run starts a cycle whose admission waited so long: the wrapper
	// performs the real allocation and confirms it, and the cycle's end is
	// scheduled.
	run := func(i int, waited time.Duration) error {
		j := &jobs[i]
		if onAdmit != nil {
			onAdmit(i, waited)
		}
		nextAddr += 0x10
		progress[i].addr = nextAddr
		if err := st.ConfirmAlloc(j.ID, j.PID, nextAddr, j.Alloc); err != nil {
			return fmt.Errorf("sim: confirm %s: %w", j.ID, err)
		}
		push(clk.Now().Add(j.Runtime), evFinish, i)
		return nil
	}
	request := func(i int) error {
		j := &jobs[i]
		res, err := st.RequestAlloc(j.ID, j.PID, j.Alloc)
		if err != nil {
			return fmt.Errorf("sim: alloc %s: %w", j.ID, err)
		}
		switch res.Decision {
		case core.Accept:
			return run(i, 0)
		case core.Suspend:
			progress[i].ticket, progress[i].since = res.Ticket, clk.Now()
			waiting[j.ID] = i
		case core.Reject:
			return fmt.Errorf("sim: %s rejected its own in-limit request", j.ID)
		}
		return nil
	}
	// released takes the result of a memory-releasing call (Free,
	// ProcessExit, Close): every ticket its Update admitted stops waiting
	// now and starts its cycle.
	released := func(_ bytesize.Size, u core.Update, err error) error {
		if err != nil {
			return err
		}
		for _, a := range u.Admitted {
			i, ok := waiting[a.Container]
			if !ok || progress[i].ticket != a.Ticket {
				continue
			}
			delete(waiting, a.Container)
			if err := run(i, clk.Now().Sub(progress[i].since)); err != nil {
				return err
			}
		}
		return nil
	}
	step := func(e event) error {
		j, p := &jobs[e.job], &progress[e.job]
		switch e.kind {
		case evArrive:
			// nvidia-docker registers the creation-time request, then the
			// container starts and, after CUDA init, allocates.
			if _, err := st.Register(j.ID, j.Limit); err != nil {
				return fmt.Errorf("sim: register %s: %w", j.ID, err)
			}
			push(e.at.Add(StartupDelay), evAllocate, e.job)
			return nil
		case evAllocate:
			return request(e.job)
		}
		// evFinish: a cycle is over.
		if p.cycle++; p.cycle < j.Cycles {
			// Realloc cycle: release the working set and immediately
			// re-enter admission.
			if err := released(st.Free(j.ID, j.PID, p.addr)); err != nil {
				return fmt.Errorf("sim: free %s: %w", j.ID, err)
			}
			return request(e.job)
		}
		// The program exits (implicit __cudaUnregisterFatBinary releases
		// everything), then Docker unmounts the dummy volume and the
		// plugin closes the container.
		info, err := st.Info(j.ID)
		if err == nil {
			err = released(st.ProcessExit(j.ID, j.PID))
		}
		if err == nil {
			err = released(st.Close(j.ID))
		}
		if err != nil {
			return fmt.Errorf("sim: finish %s: %w", j.ID, err)
		}
		out[e.job] = JobResult{Finished: clk.Since(start), Suspended: info.SuspendedTotal, Completed: true}
		return nil
	}

	for events.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sim: cancelled at %v: %w", clk.Since(start), err)
		}
		e := heap.Pop(&events).(event)
		clk.AdvanceTo(e.at)
		if err := step(e); err != nil {
			return nil, err
		}
		if afterEvent != nil {
			if err := afterEvent(); err != nil {
				return nil, fmt.Errorf("sim: after event at %v: %w", clk.Since(start), err)
			}
		}
	}
	for i, j := range jobs {
		if out[i].Completed {
			continue
		}
		// Wedged container: capture its open suspension interval.
		if info, err := st.Info(j.ID); err == nil {
			out[i].Suspended = info.SuspendedTotal
		}
	}
	return out, nil
}

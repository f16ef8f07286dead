package load

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"convgpu/internal/clock"
	"convgpu/internal/daemon"
	"convgpu/internal/ipc"
	"convgpu/internal/protocol"
	"convgpu/internal/sim"
)

// WireConfig extends Config for the wire path: the full daemon served
// over real UNIX sockets, one connection per simulated container, under
// the real clock.
type WireConfig struct {
	Config
	// TimeScale compresses every request duration (arrivals, service,
	// grace, startup) by this factor so a multi-hour open-loop scenario
	// replays in seconds of wall clock. Socket, encode and scheduler
	// costs are NOT scaled — that is the point: at TimeScale 0.05 a
	// 250 ms deadline grace becomes 12.5 ms of real headroom that wire
	// overhead genuinely eats into. Default 1.
	TimeScale float64
	// BaseDir hosts the daemon's sockets (default a fresh temp dir,
	// removed afterwards).
	BaseDir string
}

func (c WireConfig) withDefaults() WireConfig {
	c.Config = c.Config.withDefaults()
	if c.TimeScale == 0 {
		c.TimeScale = 1
	}
	return c
}

// wireOut collects one container goroutine's results without sharing.
type wireOut struct {
	out   Outcome
	waits []time.Duration
}

// RunWire replays the request stream through the complete service
// stack: daemon, control socket, per-container wrapper sockets, the
// long-poll suspend path. Each request runs as its own goroutine —
// arrivals are open-loop timers, not a closed feedback loop — and every
// admission wait is measured around the blocking alloc round trip, so
// the tails include real IPC costs. Timings are real time and therefore
// NOT run-to-run deterministic; the report marks the section so.
func RunWire(ctx context.Context, reqs []Request, wcfg WireConfig) (RunResult, error) {
	wcfg = wcfg.withDefaults()
	cfg := wcfg.Config
	// The wire path sleeps with OS-timer granularity: thousands of
	// concurrent sub-millisecond service sleeps must not spin-wait.
	st, err := newBackend(cfg, clock.Coarse{})
	if err != nil {
		return RunResult{}, err
	}
	baseDir := wcfg.BaseDir
	if baseDir == "" {
		baseDir, err = os.MkdirTemp("", "convgpu-load")
		if err != nil {
			return RunResult{}, err
		}
		defer os.RemoveAll(baseDir)
	}
	d, err := daemon.Start(daemon.Config{BaseDir: baseDir, Core: st, Obs: cfg.Obs})
	if err != nil {
		return RunResult{}, err
	}
	defer d.Close()
	ctl, err := ipc.DialNegotiated(ctx, d.ControlSocket())
	if err != nil {
		return RunResult{}, err
	}
	defer ctl.Close()

	scaled := ScaleRequests(reqs, wcfg.TimeScale)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	outs := make([]wireOut, len(scaled))
	var (
		wg      sync.WaitGroup
		errOnce sync.Once
		runErr  error
	)
	fail := func(err error) {
		errOnce.Do(func() { runErr = err })
		cancel()
	}
	start := time.Now()
	for i := range scaled {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			r := scaled[idx]
			o := &outs[idx]
			// Deadline in the compressed timebase, matching the
			// compressed measurements.
			o.out = outcomeOf(r, wcfg.TimeScale)
			if err := runWireContainer(ctx, ctl, r, idx, start, cfg, wcfg.TimeScale, o); err != nil {
				if ctx.Err() == nil {
					fail(err)
				}
			}
		}(i)
	}
	wg.Wait()
	if runErr != nil {
		return RunResult{}, runErr
	}
	if err := ctx.Err(); err != nil {
		return RunResult{}, fmt.Errorf("load: wire run cancelled: %w", err)
	}

	res := RunResult{Elapsed: time.Since(start)}
	for i := range outs {
		res.Outcomes = append(res.Outcomes, outs[i].out)
		res.AdmitWaits = append(res.AdmitWaits, outs[i].waits...)
	}
	res.settle(cfg.Obs)
	return res, nil
}

// runWireContainer is one simulated container's full wire life:
// arrival timer, register over the control socket, dial the wrapper
// socket, then cycles of blocking alloc (the measured long-poll),
// confirm, service sleep and free, ending in procexit + close. The
// wire path cannot read the scheduler's internal suspend accounting
// per request, so SuspendWait is approximated by the summed blocking
// alloc waits (which additionally include the socket round trip — the
// quantity a real client experiences).
func runWireContainer(ctx context.Context, ctl *ipc.Client, r Request, idx int, start time.Time, cfg Config, timeScale float64, o *wireOut) error {
	sleepUntil(ctx, start.Add(r.Arrival))
	if ctx.Err() != nil {
		return ctx.Err()
	}
	id := fmt.Sprintf("l%05d-%s", idx, r.Class)
	pid := pidOf(idx)
	resp, err := ctl.Call(ctx, &protocol.Message{
		Type: protocol.TypeRegister, Container: id, Limit: int64(r.Type.GPUMemory),
	})
	if err != nil {
		return fmt.Errorf("load: register %s: %w", id, err)
	}
	if !resp.OK {
		return fmt.Errorf("load: register %s: %s", id, resp.Error)
	}
	cli, err := ipc.DialNegotiated(ctx, filepath.Join(resp.SocketDir, protocol.SocketFileName))
	if err != nil {
		return fmt.Errorf("load: dial %s: %w", id, err)
	}
	defer cli.Close()

	clock.Coarse{}.Sleep(scaleDur(sim.StartupDelay, timeScale))
	size := int64(r.Type.AllocSize())
	serviceSleep := r.Service + scaleDur(sim.CopyTime(r.Type.AllocSize()), timeScale)
	addr := uint64(0x1000 + idx*0x100)
	for cycle := 0; cycle < r.Cycles; cycle++ {
		// The blocking alloc round trip IS the admission wait: the
		// daemon parks the response while the request is suspended and
		// replies when redistribution admits it.
		t0 := time.Now()
		resp, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeAlloc, PID: pid, Size: size})
		if err != nil {
			return fmt.Errorf("load: alloc %s: %w", id, err)
		}
		if !resp.OK {
			return fmt.Errorf("load: alloc %s: %s", id, resp.Error)
		}
		wait := time.Since(t0)
		o.waits = append(o.waits, wait)
		if wait > o.out.AdmitWaitMax {
			o.out.AdmitWaitMax = wait
		}
		o.out.Allocs++
		o.out.SuspendWait += wait
		addr++
		// Confirm and free travel one-way, as the wrapper sends them; a
		// refusal comes back on a later call, the procexit at the latest.
		if err := cli.Post(ctx, &protocol.Message{Type: protocol.TypeConfirm, PID: pid, Addr: addr, Size: size}); err != nil {
			return fmt.Errorf("load: confirm %s: %w", id, err)
		}
		clock.Coarse{}.Sleep(serviceSleep)
		if cycle+1 < r.Cycles {
			if err := cli.Post(ctx, &protocol.Message{Type: protocol.TypeFree, PID: pid, Addr: addr}); err != nil {
				return fmt.Errorf("load: free %s: %w", id, err)
			}
		}
	}
	if resp, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeProcExit, PID: pid}); err != nil {
		return fmt.Errorf("load: procexit %s: %w", id, err)
	} else if !resp.OK {
		return fmt.Errorf("load: procexit %s: %s", id, resp.Error)
	}
	if resp, err := ctl.Call(ctx, &protocol.Message{Type: protocol.TypeClose, Container: id}); err != nil {
		return fmt.Errorf("load: close %s: %w", id, err)
	} else if !resp.OK {
		return fmt.Errorf("load: close %s: %s", id, resp.Error)
	}
	o.out.complete(time.Since(start), cfg.Obs)
	return nil
}

// sleepUntil sleeps on the real clock until the deadline or context
// cancellation, whichever first.
func sleepUntil(ctx context.Context, deadline time.Time) {
	d := time.Until(deadline)
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

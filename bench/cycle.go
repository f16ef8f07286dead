package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"convgpu"
	"convgpu/internal/core"
	"convgpu/internal/ipc"
	"convgpu/internal/nvdocker"
	"convgpu/internal/protocol"
	"convgpu/internal/wrapper"
)

// cycleInst is the cycle and cycle_wal workloads: one container whose
// program loops Malloc+Free through the wrapper (paper Fig. 4). A second
// registered container, never started until the end, lends its socket
// to the traced run's hand-issued cycle.
type cycleInst struct {
	o      *options
	rig    *rig
	wal    bool
	c      *convgpu.Container
	manual *convgpu.Container

	// jobs hands closures to the container's program, which is the only
	// goroutine allowed to use its Proc; done acknowledges each.
	jobs chan func(p *convgpu.Proc)
	done chan struct{}

	// sizes are the allocation sizes, drawn from the seed: 4 KiB to
	// 64 KiB, all of which cost the middleware the same (the wire message
	// does not grow with the size), so seeds differ in input, not in load.
	sizes  [1024]convgpu.Size
	next   int
	cycles int64 // successful cycles since set-up, for the event check

	// Filled by the traced measure.
	malloc, free                  *series // wrapper steps
	allocRTT, confirmRTT, freeRTT *series // hand-issued round trips
	wrapped, byHand               measured
	replay                        time.Duration // reopening the log at the end
	restore                       func()        // undoes isolate
}

const (
	// cycleDeadline is that of a hung call. The host stops this VM for
	// 100 ms a few times an hour; such a cycle is slow, not failed.
	cycleDeadline = 5 * time.Second
	// warmCap bounds a warm-up whatever the disk does.
	warmCap = 2 * time.Second
)

func startCycle(o *options, withWAL bool) (instance, error) {
	r, err := newRig(o, 2*convgpu.GiB, withWAL)
	if err != nil {
		return nil, err
	}
	ci := &cycleInst{o: o, rig: r, wal: withWAL, jobs: make(chan func(*convgpu.Proc)), done: make(chan struct{}), restore: func() {}}
	if withWAL {
		// Every call waits 130 µs for the disk, long enough for both CPUs
		// to go idle, and what waking an idle virtual CPU costs is the
		// host's business (calib.go): scaled p50 263–273 µs from run to run
		// on two CPUs, 279–281 on one that never idles.
		ci.restore = isolate()
	}
	rng := rand.New(rand.NewSource(o.seed))
	for i := range ci.sizes {
		ci.sizes[i] = convgpu.Size(1+rng.Intn(16)) * 4 * convgpu.KiB
	}
	// A fixed count of warm-up cycles, so that set-up time is the cost of
	// a fixed amount of work: about 0.4 s either way.
	warm := o.scaled(20000)
	if withWAL {
		warm = o.scaled(1200)
	}
	ready := make(chan error, 1)
	prog := func(p *convgpu.Proc) error {
		start := time.Now()
		for i := 0; i < warm && time.Since(start) < warmCap; i++ {
			if _, err := ci.cycle(p); err != nil {
				ready <- err
				return err
			}
		}
		ready <- nil
		for job := range ci.jobs {
			job(p)
			ci.done <- struct{}{}
		}
		return nil
	}
	if ci.c, err = r.run("cycle", convgpu.GiB, prog); err == nil {
		ci.manual, err = r.create("manual", convgpu.GiB, noop)
	}
	if err == nil {
		if err = <-ready; err != nil {
			err = fmt.Errorf("warm-up: %w", err)
		}
	}
	if err != nil {
		ci.restore()
		return nil, err
	}
	return ci, nil
}

func (ci *cycleInst) socketRig() *rig { return ci.rig }

func (ci *cycleInst) size() convgpu.Size {
	ci.next++
	return ci.sizes[ci.next&(len(ci.sizes)-1)]
}

// cycle is the operation: one Malloc+Free pair as the program sees it.
func (ci *cycleInst) cycle(p *convgpu.Proc) (time.Duration, error) {
	size := ci.size()
	start := time.Now()
	ptr, err := p.CUDA.Malloc(size)
	if err != nil {
		return 0, err
	}
	if err := p.CUDA.Free(ptr); err != nil {
		return 0, err
	}
	ci.cycles++
	return time.Since(start), nil
}

// inProgram runs f on the container's program goroutine.
func (ci *cycleInst) inProgram(f func(p *convgpu.Proc)) {
	ci.jobs <- f
	<-ci.done
}

// window is the length of one timed window. A quarter of a second holds
// 10k cycles, plenty for a p90, and gives the median across windows 80
// of them to discard the disturbed ones from.
func (ci *cycleInst) window() time.Duration {
	if ci.o.quick {
		return 100 * time.Millisecond
	}
	return 250 * time.Millisecond
}

func (ci *cycleInst) sampler(windows int) *sampler {
	return newSampler(ci.o.calib, ci.o.ref, windows, cycleDeadline)
}

func (ci *cycleInst) measure(d time.Duration, tr *tracer) measured {
	windows := windowsOf(d, ci.window())
	if tr == nil {
		s := ci.sampler(windows)
		ci.inProgram(func(p *convgpu.Proc) {
			s.run(windows, ci.window(), func() (time.Duration, error) { return ci.cycle(p) })
		})
		s.printWindows()
		return s.result()
	}
	tr.limit = tracerCap / 2
	ci.traceWrapped(max(windows/2, 1), tr)
	tr.limit = tracerCap
	ci.traceByHand(max(windows-windows/2, 1), tr)
	return ci.wrapped
}

const seriesCap = 1 << 19

// traceWrapped is the program's own loop with a span around each call
// into the wrapper.
func (ci *cycleInst) traceWrapped(windows int, tr *tracer) {
	ci.malloc, ci.free = newSeries(seriesCap), newSeries(seriesCap)
	s := ci.sampler(windows)
	var req int64
	ci.inProgram(func(p *convgpu.Proc) {
		s.run(windows, ci.window(), func() (time.Duration, error) {
			req++
			size := ci.size()
			t0 := tr.now()
			root := tr.open("cycle", "bench", req, -1, t0)
			ptr, err := p.CUDA.Malloc(size)
			if err != nil {
				return 0, err
			}
			t1 := tr.now()
			if err := p.CUDA.Free(ptr); err != nil {
				return 0, err
			}
			t2 := tr.now()
			tr.add("wrapper.malloc", "wrapper", req, root, t0, t1)
			tr.add("wrapper.free", "wrapper", req, root, t1, t2)
			tr.close(root, t2)
			ci.malloc.add(t1 - t0)
			ci.free.add(t2 - t1)
			ci.cycles++
			return time.Duration(t2 - t0), nil
		})
	})
	ci.wrapped = s.result()
}

// traceByHand issues the cycle's five steps one by one on a raw client
// against the second container's socket — the three round trips the
// wrapper makes and the two device calls between them — so that each
// gets its own span. The client stays on the codec a container's wrapper
// gets from the facade, which does not negotiate the binary one.
func (ci *cycleInst) traceByHand(windows int, tr *tracer) {
	ci.allocRTT, ci.confirmRTT, ci.freeRTT = newSeries(seriesCap), newSeries(seriesCap), newSeries(seriesCap)
	s := ci.sampler(windows)
	dir := ci.manual.Spec().Volumes[nvdocker.WrapperMountPoint]
	cli, err := ipc.Dial(filepath.Join(dir, wrapper.SocketFileName))
	if err != nil {
		s.fail(err)
		ci.byHand = s.result()
		return
	}
	defer cli.Close()
	const pid = 1 // below the engine's pids, which start at 1001
	dev := convgpu.RawCUDA(ci.rig.st.Device(), pid)
	ctx := context.Background()
	call := func(m *protocol.Message) error {
		resp, err := cli.Call(ctx, m)
		if err != nil {
			return err
		}
		defer protocol.ReleaseMessage(resp)
		if !resp.OK || (m.Type == protocol.TypeAlloc && resp.Decision != protocol.DecisionAccept) {
			return fmt.Errorf("%s: ok=%v decision=%q %s", m.Type, resp.OK, resp.Decision, resp.Error)
		}
		return nil
	}
	var req int64 = 1 << 32 // apart from the wrapped cycles' request ids
	s.run(windows, ci.window(), func() (time.Duration, error) {
		req++
		size := ci.size()
		t0 := tr.now()
		root := tr.open("cycle", "bench", req, -1, t0)
		if err := call(&protocol.Message{Type: protocol.TypeAlloc, PID: pid, Size: int64(size), API: "cudaMalloc"}); err != nil {
			return 0, err
		}
		t1 := tr.now()
		ptr, err := dev.Malloc(size)
		if err != nil {
			return 0, err
		}
		t2 := tr.now()
		if err := call(&protocol.Message{Type: protocol.TypeConfirm, PID: pid, Size: int64(size), Addr: uint64(ptr)}); err != nil {
			return 0, err
		}
		t3 := tr.now()
		if err := dev.Free(ptr); err != nil {
			return 0, err
		}
		t4 := tr.now()
		if err := call(&protocol.Message{Type: protocol.TypeFree, PID: pid, Addr: uint64(ptr)}); err != nil {
			return 0, err
		}
		t5 := tr.now()
		tr.add("daemon.alloc_rtt", "daemon", req, root, t0, t1)
		tr.add("cuda.malloc", "cuda", req, root, t1, t2)
		tr.add("daemon.confirm_rtt", "daemon", req, root, t2, t3)
		tr.add("cuda.free", "cuda", req, root, t3, t4)
		tr.add("daemon.free_rtt", "daemon", req, root, t4, t5)
		tr.close(root, t5)
		ci.allocRTT.add(t1 - t0)
		ci.confirmRTT.add(t3 - t2)
		ci.freeRTT.add(t5 - t4)
		ci.cycles++
		return time.Duration(t5 - t0), nil
	})
	ci.byHand = s.result()
	ci.wrapped.attempted += ci.byHand.attempted
	ci.wrapped.failed += ci.byHand.failed
	// The process is done: tear its context down and tell the scheduler,
	// as __cudaUnregisterFatBinary would. A failure here shows in the
	// output checks.
	dev.UnregisterFatBinary()
	call(&protocol.Message{Type: protocol.TypeProcExit, PID: pid})
}

func (ci *cycleInst) layers(rep *report) {
	us := func(ns float64) float64 { return ns / 1e3 }
	rep.set("wrapper.malloc_p50_us", us(ci.malloc.pct(0.5)), ci.malloc.n())
	rep.set("wrapper.malloc_p99_us", us(ci.malloc.pct(0.99)), ci.malloc.n())
	rep.set("wrapper.free_p50_us", us(ci.free.pct(0.5)), ci.free.n())
	rep.set("wrapper.vs_manual_us", ci.wrapped.rawP50us-ci.byHand.rawP50us, ci.byHand.samples)
	rep.set("wrapper.cycle_p99_us", ci.wrapped.p99us, ci.wrapped.samples)
	rep.set("wrapper.cycle_max_us", ci.wrapped.maxus, ci.wrapped.samples)
	rep.set("wrapper.cycles_per_s", ci.wrapped.opsPerSec, ci.wrapped.samples)
	a, c, f := us(ci.allocRTT.pct(0.5)), us(ci.confirmRTT.pct(0.5)), us(ci.freeRTT.pct(0.5))
	rep.set("daemon.alloc_rtt_p50_us", a, ci.allocRTT.n())
	rep.set("daemon.confirm_rtt_p50_us", c, ci.confirmRTT.n())
	rep.set("daemon.free_rtt_p50_us", f, ci.freeRTT.n())
	fmt.Printf("# hand-issued cycle p50 %.2f us as the clock read; its three round trips' p50s sum to %.2f us (%.0f%%)\n",
		ci.byHand.rawP50us, a+c+f, 100*(a+c+f)/ci.byHand.rawP50us)
	if ci.wal {
		rep.set("wal.open_replay_s", ci.replay.Seconds(), 1)
	}
}

func (ci *cycleInst) finish() error {
	defer ci.restore()
	close(ci.jobs)
	if err := ci.c.Wait(); err != nil {
		return fmt.Errorf("cycle container: %w", err)
	}
	// Starting the second container runs its empty program, so that it
	// leaves through the system's own exit path.
	if err := ci.manual.Start(); err != nil {
		return err
	}
	if err := ci.manual.Wait(); err != nil {
		return err
	}
	err := ci.rig.check()
	if accepts := ci.rig.events(core.EvAccept); err == nil && accepts < ci.cycles {
		err = fmt.Errorf("%d accept events for %d cycles", accepts, ci.cycles)
	}
	replay, cerr := ci.rig.close()
	if err == nil {
		err = cerr
	}
	ci.replay = replay
	ci.rig.remove()
	return err
}

package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"syscall"
	"time"

	"convgpu"
	"convgpu/internal/core"
	"convgpu/internal/nvdocker"
)

// handoffInst is the handoff workload, the paper's suspend→resume path:
// one container holds most of the device, the next one's Malloc is
// suspended behind it, the holder frees and exits, and the suspended
// Malloc returns. The latency is release signal → that return. A single
// driver keeps at most two containers alive.
type handoffInst struct {
	o      *options
	rig    *rig
	slots  [2]slot
	holder int // the slot whose container holds the memory; -1 for none
	sizes  [256]convgpu.Size
	next   int
	timer  *time.Timer

	suspended, resumed, lost int64
	restore                  func() // undoes isolate
}

// slot is one of the two program closures the driver alternates
// between, with its channels, so that a handoff allocates nothing of
// the benchmark's own.
type slot struct {
	c       *convgpu.Container
	size    convgpu.Size
	release chan struct{}
	done    chan mallocDone
	prog    convgpu.Program
}

type mallocDone struct {
	at  time.Time
	err error
}

const (
	handoffLimit    = 768 * convgpu.MiB
	handoffDeadline = time.Second
	// handoffEvery paces the timed handoffs; one takes 1.5 ms to 3.5 ms
	// depending on what creating a container costs the file system, and
	// rarely 5 even with busy neighbours.
	handoffEvery = 5 * time.Millisecond
	// guard separates the suspension from the release: the daemon's
	// handler parks the responder only after the core returned Suspend,
	// and a close that admits the ticket in between finds nobody to answer
	// (bench/README.md, "Known defects").
	guard = 500 * time.Microsecond
)

var errHandoffTimeout = errors.New("suspended malloc did not return within the deadline")

func startHandoff(o *options) (instance, error) {
	r, err := newRig(o, convgpu.GiB, false)
	if err != nil {
		return nil, err
	}
	h := &handoffInst{o: o, rig: r, holder: -1, timer: time.NewTimer(time.Hour), restore: isolate()}
	h.timer.Stop()
	rng := rand.New(rand.NewSource(o.seed))
	for i := range h.sizes {
		// With its 66 MiB context a holder fits its 768 MiB limit, and a
		// newcomer does not fit the 256 MiB left over for it.
		h.sizes[i] = convgpu.Size(568+rng.Intn(65)) * convgpu.MiB
	}
	for i := range h.slots {
		sl := &h.slots[i]
		sl.release, sl.done = make(chan struct{}, 1), make(chan mallocDone, 1)
		sl.prog = func(p *convgpu.Proc) error {
			ptr, err := p.CUDA.Malloc(sl.size)
			sl.done <- mallocDone{time.Now(), err}
			if err != nil {
				return err
			}
			select {
			case <-sl.release:
			case <-p.Ctx.Done():
			}
			return p.CUDA.Free(ptr)
		}
	}
	start, failures := time.Now(), 0
	for i, warm := 0, o.scaled(300); i < warm && time.Since(start) < warmCap; i++ {
		// One lost wake-up is the daemon's known defect, not a broken rig.
		if _, err := h.handoff(nil, 0); err != nil {
			if failures++; failures > 3 {
				h.restore()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return h, nil
}

func (h *handoffInst) socketRig() *rig { return h.rig }

func (h *handoffInst) launch(sl *slot) (err error) {
	h.next++
	sl.size = h.sizes[h.next&(len(h.sizes)-1)]
	sl.c, err = h.rig.run("", handoffLimit, sl.prog)
	return err
}

// await waits for a slot's Malloc to return, up to the deadline.
func (h *handoffInst) await(sl *slot) (mallocDone, bool) {
	h.timer.Reset(handoffDeadline)
	select {
	case d := <-sl.done:
		if !h.timer.Stop() {
			select {
			case <-h.timer.C:
			default:
			}
		}
		return d, true
	case <-h.timer.C:
		return mallocDone{}, false
	}
}

// abandon stops a container whose Malloc will not return and forgets
// its result, so that its memory goes back to the pool.
func (h *handoffInst) abandon(sl *slot) {
	sl.c.Stop()
	select {
	case <-sl.done:
	default:
	}
}

// handoff is the operation. It returns the time from the release signal
// to the suspended Malloc's return.
func (h *handoffInst) handoff(tr *tracer, req int64) (time.Duration, error) {
	if h.holder < 0 {
		// First handoff, or the one after a failure: put a holder in place.
		sl := &h.slots[0]
		if err := h.launch(sl); err != nil {
			return 0, err
		}
		if d, ok := h.await(sl); !ok || d.err != nil {
			h.abandon(sl)
			return 0, fmt.Errorf("holder did not get its memory: %v", d.err)
		}
		h.holder = 0
	}
	cur, nxt := &h.slots[h.holder], &h.slots[1-h.holder]
	suspends := h.rig.events(core.EvSuspend)

	t0 := tr.now()
	root := tr.open("handoff", "bench", req, -1, t0)
	if err := h.launch(nxt); err != nil {
		return 0, err
	}
	t1 := tr.now()
	for limit := time.Now().Add(handoffDeadline); h.rig.events(core.EvSuspend) == suspends; {
		if time.Now().After(limit) {
			h.abandon(nxt)
			return 0, errors.New("newcomer's malloc was not suspended")
		}
		nap(20 * time.Microsecond)
	}
	h.suspended++
	t2 := tr.now()
	nap(guard)
	t3 := tr.now()

	released := time.Now()
	cur.release <- struct{}{}
	d, ok := h.await(nxt)
	t4 := tr.now()
	if !ok || d.err != nil {
		// Tell a lost wake-up from a slow one: the core shows the
		// container admitted, with nothing pending, while its wrapper
		// still waits.
		for _, info := range h.rig.st.Snapshot() {
			if string(info.ID) == nxt.c.ID() && info.Pending == 0 && !info.Suspended {
				h.lost++
			}
		}
		h.abandon(nxt)
		cur.c.Wait()
		h.holder = -1
		if d.err != nil {
			return 0, d.err
		}
		return 0, errHandoffTimeout
	}
	h.resumed++
	cur.c.Wait()
	// The daemon leaves a closed container's directory behind. Removing it
	// now keeps the checkout from filling with ten thousand of them, whose
	// removal in one go at the end slows the file system for the next run.
	os.RemoveAll(cur.c.Spec().Volumes[nvdocker.WrapperMountPoint])
	t5 := tr.now()
	h.holder = 1 - h.holder

	tr.add("stack.run", "nvdocker", req, root, t0, t1)
	tr.add("wait_suspend", "bench", req, root, t1, t2)
	tr.add("guard", "bench", req, root, t2, t3)
	tr.add("release_to_resume", "daemon", req, root, t3, t4)
	tr.add("holder_exit", "plugin", req, root, t4, t5)
	tr.close(root, t5)
	return d.at.Sub(released), nil
}

func (h *handoffInst) measure(d time.Duration, tr *tracer) measured {
	// At a handoff every 5 ms a window has to be a second long to hold a p90.
	window := time.Second
	if h.o.quick {
		window = 200 * time.Millisecond
	}
	windows := windowsOf(d, window)
	s := newSampler(h.o.calib, h.o.ref, windows, handoffDeadline)
	var req int64
	next := time.Now()
	s.run(windows, window, func() (time.Duration, error) {
		// Handoffs start on a fixed cadence, so that a run makes the same
		// number of them however fast containers are created: what they
		// leave behind (memory in the engine, directories on disk) is
		// then the same from run to run.
		if wait := time.Until(next); wait > 0 {
			nap(wait)
		} else {
			next = time.Now()
		}
		next = next.Add(handoffEvery)
		req++
		return h.handoff(tr, req)
	})
	if s.firstErr != nil {
		fmt.Printf("# first failed handoff: %v\n", s.firstErr)
	}
	if tr == nil {
		s.printWindows()
	}
	return s.result()
}

func (h *handoffInst) layers(rep *report) {
	rep.set("daemon.lost_wakeups", float64(h.lost), int(h.suspended))
}

func (h *handoffInst) finish() error {
	defer h.restore()

	if h.holder >= 0 {
		cur := &h.slots[h.holder]
		cur.release <- struct{}{}
		if err := cur.c.Wait(); err != nil {
			return fmt.Errorf("last holder: %w", err)
		}
	}
	err := h.rig.check()
	suspends, resumes := h.rig.events(core.EvSuspend), h.rig.events(core.EvResume)
	if err == nil && (suspends != h.suspended || resumes != h.resumed+h.lost) {
		err = fmt.Errorf("%d suspend and %d resume events for %d suspensions and %d resumptions (%d wake-ups lost)",
			suspends, resumes, h.suspended, h.resumed, h.lost)
	}
	if _, cerr := h.rig.close(); err == nil {
		err = cerr
	}
	h.rig.remove()
	return err
}

// nap sleeps in the kernel. time.Sleep would do for correctness, but an
// idle Go scheduler waits in epoll, whose timeout counts milliseconds:
// a 20 µs poll and a 500 µs guard would both take 1.1 ms.
func nap(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}

package daemon

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"convgpu/internal/core"
	"convgpu/internal/cuda"
	"convgpu/internal/fault"
	"convgpu/internal/gpu"
	"convgpu/internal/ipc"
	"convgpu/internal/leak"
	"convgpu/internal/obs"
	"convgpu/internal/protocol"
	"convgpu/internal/wrapper"
)

// wrapperOn dials a registered container's socket the way a container's
// process does — negotiated, so confirm and free travel one-way — and
// puts a wrapper module for pid on it.
func wrapperOn(t *testing.T, resp *protocol.Message, dev *gpu.Device, pid int) (*wrapper.Module, *ipc.Client) {
	t.Helper()
	mod, cli, _ := tappedWrapperOn(t, resp, dev, pid)
	return mod, cli
}

// tappedWrapperOn is wrapperOn, handing out the tap that sits where the
// client's socket is and records what it writes.
func tappedWrapperOn(t *testing.T, resp *protocol.Message, dev *gpu.Device, pid int) (*wrapper.Module, *ipc.Client, *fault.Tap) {
	t.Helper()
	if !resp.OK {
		t.Fatalf("register refused: %s", resp.Error)
	}
	conn, err := net.Dial("unix", filepath.Join(resp.SocketDir, protocol.SocketFileName))
	if err != nil {
		t.Fatal(err)
	}
	tap := fault.NewTap(conn)
	cli := ipc.NewClient(tap)
	t.Cleanup(func() { cli.Close() })
	if ok, err := cli.NegotiateBinary(context.Background()); err != nil || !ok {
		t.Fatalf("wrapper connection stayed on JSON: %v", err)
	}
	return wrapper.New(cuda.NewRuntime(dev, pid), cli, pid), cli, tap
}

// TestReleaseBetweenDecideAndPark is the lost wake-up, made
// deterministic: a handler is held between core telling it Suspend and
// the parking of its responder while a release elsewhere admits the
// ticket. The suspended Malloc must still return. Two releases can do
// that: a free on the container's other connection (its usage drops
// under its grant — the one a one-way free makes more likely, arriving
// sooner than a reply-awaiting one did), and the close of the container
// that held the memory. The caller- cases run the suspended container's
// two wrappers through the socketless Caller, whose responders park with
// no connection.
func TestReleaseBetweenDecideAndPark(t *testing.T) {
	for _, name := range []string{"free", "close", "caller-free", "caller-close"} { // short names: they end up in socket paths
		t.Run(name, func(t *testing.T) {
			release, socketless := strings.CutPrefix(name, "caller-")
			d := startDaemon(t, mib(1000))
			inGap, leaveGap := make(chan struct{}), make(chan struct{})
			defer close(leaveGap)
			d.beforePark = func() {
				close(inGap)
				<-leaveGap
			}
			ctl := dialControl(t, d)
			dev := gpu.New(gpu.K20m())
			hog, _ := wrapperOn(t, register(t, ctl, "hog", mib(900)), dev, 1)
			if _, err := hog.Malloc(mib(800)); err != nil {
				t.Fatal(err)
			}
			late := register(t, ctl, "late", mib(600)) // granted the 100 MiB left over
			var first, second *wrapper.Module
			if socketless {
				first = wrapper.New(cuda.NewRuntime(dev, 2), d.Caller("late"), 2)
				second = wrapper.New(cuda.NewRuntime(dev, 3), d.Caller("late"), 3)
			} else {
				first, _ = wrapperOn(t, late, dev, 2)
				second, _ = wrapperOn(t, late, dev, 3)
			}
			held, err := first.Malloc(mib(80))
			if err != nil {
				t.Fatal(err)
			}

			got := make(chan error, 1)
			go func() {
				_, err := second.Malloc(mib(60)) // 80 + 60 exceed the grant, the pool is empty: Suspend
				got <- err
			}()
			select {
			case <-inGap:
			case err := <-got:
				t.Fatalf("Malloc returned %v without being suspended", err)
			case <-time.After(5 * time.Second):
				t.Fatal("Malloc never reached the decision")
			}

			// The release lands in the gap. Core admits the ticket at once;
			// whether the daemon can deliver that is what is being tested.
			released := make(chan error, 1)
			go func() {
				if release == "close" {
					resp, err := ctl.Call(context.Background(), &protocol.Message{Type: protocol.TypeClose, Container: "hog"})
					if err == nil && !resp.OK {
						err = errors.New(resp.Error)
					}
					released <- err
					return
				}
				released <- errors.Join(first.Free(held), first.Flush())
			}()
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				info, err := d.Core().Info("late")
				if err != nil {
					t.Fatal(err)
				}
				if info.Pending == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("core never admitted the ticket: %+v", info)
				}
			}
			leaveGap <- struct{}{}

			select {
			case err := <-got:
				if err != nil {
					t.Fatalf("suspended Malloc failed: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("lost wake-up: core admitted the ticket, the suspended Malloc never returned")
			}
			if err := <-released; err != nil {
				t.Fatal(err)
			}
			d.mu.Lock()
			defer d.mu.Unlock()
			if n := len(d.parked); n != 0 {
				t.Errorf("%d responders still parked", n)
			}
		})
	}
}

// cycleRig is one container whose wrapper runs over a negotiated
// connection to a daemon that logs what it refuses.
type cycleRig struct {
	d   *Daemon
	st  *core.State
	dev *gpu.Device
	mod *wrapper.Module
	cli *ipc.Client
	tap *fault.Tap

	mu   sync.Mutex
	logs []string
}

func newCycleRig(t *testing.T) *cycleRig {
	t.Helper()
	leak.Check(t)
	r := &cycleRig{st: core.MustNew(core.Config{Capacity: mib(1000), ContextOverhead: 1}), dev: gpu.New(gpu.K20m())}
	var err error
	r.d, err = Start(Config{BaseDir: filepath.Join(t.TempDir(), "cv"), Core: r.st, Logf: func(format string, args ...any) {
		r.mu.Lock()
		r.logs = append(r.logs, fmt.Sprintf(format, args...))
		r.mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.d.Close() })
	r.mod, r.cli, r.tap = tappedWrapperOn(t, register(t, dialControl(t, r.d), "c", mib(900)), r.dev, 7)
	return r
}

func (r *cycleRig) used(t *testing.T) int64 {
	t.Helper()
	info, err := r.st.Info("c")
	if err != nil {
		t.Fatal(err)
	}
	return int64(info.Used)
}

// TestOneWayCyclesKeepProgramOrder: 10k Malloc+Free cycles on one
// connection, every one of which gets the address the previous one
// freed. A cycle's confirm waits in the client's buffer, its free waits
// behind it, both leave in the next cycle's alloc's write, and the daemon
// reads a connection in order: alloc, confirm, free, cycle after cycle. So the
// free finds its address confirmed, the confirm of a reused address
// never finds the address still charged (core's stale-address branch,
// which would make the late free fail) and nothing is refused.
func TestOneWayCyclesKeepProgramOrder(t *testing.T) {
	r := newCycleRig(t)
	var first cuda.DevPtr
	for i := 0; i < 10000; i++ {
		ptr, err := r.mod.Malloc(mib(1 + i%7))
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if i == 0 {
			first = ptr
		} else if ptr != first {
			t.Fatalf("cycle %d: device returned %#x, not the freed %#x: no address reuse to test", i, ptr, first)
		}
		if err := r.mod.Free(ptr); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	if err := r.mod.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := r.d.WireStats().FrameErrors(); n != 0 {
		t.Errorf("daemon refused %d one-way frames: %v", n, r.logs)
	}
	if got := r.used(t); got != 1 {
		t.Errorf("used = %d bytes after the last free, want the process's 1-byte context", got)
	}
	w := r.d.WireStats()
	if in, out := w.Frames(true, false), w.Frames(true, true); in-out != 2*10000 {
		t.Errorf("binary frames %d in, %d out: want 20000 more in than out, a confirm and a free per cycle", in, out)
	}
	frames := r.tap.FrameTypes()
	if n := len(frames); n != 3*10000+1 {
		t.Fatalf("the client wrote %d binary frames, want 3 a cycle and the barrier", n)
	}
	cycle := [3]protocol.Type{protocol.TypeAlloc, protocol.TypeConfirm, protocol.TypeFree}
	for i, typ := range frames[:3*10000] {
		if typ != cycle[i%3] {
			t.Fatalf("frame %d on the wire is a %s, want %s: a cycle is decoded alloc, confirm, free", i, typ, cycle[i%3])
		}
	}
}

// TestLoneMallocIsConfirmedWithinTheBound: one Malloc, then silence —
// no free, no heartbeat, no further call into the module. The deferred
// confirm has nothing to ride and the client's timer writes it: within
// 50 ms the scheduler tracks the address under its pid (a free of it,
// asked of the core directly, finds it).
func TestLoneMallocIsConfirmedWithinTheBound(t *testing.T) {
	r := newCycleRig(t)
	ptr, err := r.mod.Malloc(mib(3))
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(50 * time.Millisecond); ; time.Sleep(200 * time.Microsecond) {
		size, _, err := r.st.Free("c", 7, uint64(ptr))
		if err == nil {
			if size != mib(3) {
				t.Fatalf("the scheduler tracked %#x with %v, want 3MiB", uint64(ptr), size)
			}
			break
		}
		if !errors.Is(err, core.ErrUnknownAddr) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("50 ms after Malloc returned the scheduler does not know %#x: the confirm is still in the client", uint64(ptr))
		}
	}
	if n := r.tap.Writes(); n != 3 { // the codec probe, the alloc, the timer's flush
		t.Errorf("%d client writes, want 3: the confirm went out once, on its own", n)
	}
}

// TestJoinedFreeResumesWithinTheBound: a free that somebody is waiting on
// is late by no more than the confirm it joined. A running container's
// free goes back to its own grant, not to the pool, so the two that wait
// on each other are two processes of one container, with a second
// container holding the pool empty: B's Malloc is suspended behind A's
// old 600 MiB. A allocates 4 KiB and frees the old block at once — the
// free waits in A's buffer behind the fresh confirm — and then calls
// nothing more: B's Malloc returns within 50 ms all the same, by A's
// timer. With 5 ms between A's Malloc and its Free the timer has taken
// the confirm, nothing is waiting, and the free is on the wire when Free
// returns.
func TestJoinedFreeResumesWithinTheBound(t *testing.T) {
	for _, pause := range []time.Duration{0, 5 * time.Millisecond} {
		t.Run(fmt.Sprint("pause=", pause), func(t *testing.T) {
			d := startDaemon(t, mib(1000))
			ctl := dialControl(t, d)
			dev := gpu.New(gpu.K20m())
			register(t, ctl, "hog", mib(300))
			late := register(t, ctl, "late", mib(900)) // granted the 700 MiB left over
			a, _, tap := tappedWrapperOn(t, late, dev, 2)
			b, _ := wrapperOn(t, late, dev, 3)
			old, err := a.Malloc(mib(600))
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Flush(); err != nil {
				t.Fatal(err)
			}
			got := make(chan error, 1)
			go func() {
				_, err := b.Malloc(mib(250)) // 600 + 250 fit the limit, exceed the grant, the pool is empty: Suspend
				got <- err
			}()
			waitFor(t, "B's Malloc suspended", func() bool {
				info, err := d.Core().Info("late")
				return err == nil && info.Pending == 1
			})

			if _, err := a.Malloc(4096); err != nil {
				t.Fatal(err)
			}
			time.Sleep(pause)
			before := tap.Writes()
			if err := a.Free(old); err != nil {
				t.Fatal(err)
			}
			if pause > 0 {
				frames := tap.FrameTypes()
				if n := tap.Writes() - before; n != 1 || frames[len(frames)-1] != protocol.TypeFree {
					t.Errorf("a free with nothing waiting ahead of it: %d writes when Free returned, last frame %s; want its own write", n, frames[len(frames)-1])
				}
			}
			select { // A makes no further call
			case err := <-got:
				if err != nil {
					t.Fatalf("suspended Malloc failed: %v", err)
				}
			case <-time.After(50 * time.Millisecond):
				t.Fatalf("B still suspended 50 ms after A's Free returned: the free is waiting in A's buffer (%d writes since)", tap.Writes()-before)
			}
		})
	}
}

// oneWayCyclesThreads: threads of one process share the connection. The
// device hands a freed address to another thread before the free's
// report is written, so a confirm can overtake it — core tolerates that
// (it releases the stale charge itself and the late free may find
// nothing) and the wrapper must never hear of it: every call succeeds
// and the account is square at the end. Deferred confirms, frees that
// join them or are written at once, blocking allocs and the deferral
// timer all meet on the one write buffer here; under -race that is the
// test of its locking.
func oneWayCyclesThreads(t *testing.T, threads, cycles int) {
	r := newCycleRig(t)
	var wg sync.WaitGroup
	errc := make(chan error, threads)
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < cycles; i++ {
				ptr, err := r.mod.Malloc(mib(1 + (i+th)%5))
				if err == nil {
					err = r.mod.Free(ptr)
				}
				if err != nil {
					errc <- fmt.Errorf("thread %d cycle %d: %w", th, i, err)
					return
				}
			}
		}(th)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if err := r.mod.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := r.used(t); got != 1 {
		t.Errorf("used = %d bytes after every thread freed everything, want the 1-byte context", got)
	}
	if err := r.st.CheckInvariants(); err != nil {
		t.Error(err)
	}
	for _, l := range r.logs {
		if !strings.Contains(l, core.ErrUnknownAddr.Error()) {
			t.Errorf("daemon refused something other than a late free: %s", l)
		}
	}
	if n := r.d.WireStats().FrameErrors(); int(n) != len(r.logs) {
		t.Errorf("%d frame errors counted, %d logged", n, len(r.logs))
	}
	if err := r.mod.UnregisterFatBinary(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.st.Close("c"); err != nil {
		t.Fatal(err)
	}
	if free := r.st.PoolFree(); free != mib(1000) {
		t.Errorf("pool after close = %v, want all of it", free)
	}
}

func TestOneWayCyclesFourThreads(t *testing.T)  { oneWayCyclesThreads(t, 4, 2500) }
func TestOneWayCyclesEightThreads(t *testing.T) { oneWayCyclesThreads(t, 8, 1250) }

// TestRefusedOneWayFree: nobody waits on a one-way free, so the daemon
// counts and logs a refused one. An unknown address stays there (see
// containerHandler); any other refusal also goes back and fails the
// wrapper's next call.
func TestRefusedOneWayFree(t *testing.T) {
	r := newCycleRig(t)
	ctx := context.Background()
	if _, err := r.mod.Malloc(mib(1)); err != nil { // the daemon now knows pid 7
		t.Fatal(err)
	}

	if err := r.cli.Post(ctx, &protocol.Message{Type: protocol.TypeFree, PID: 7, Addr: 0xdead0}); err != nil {
		t.Fatal(err)
	}
	if err := r.mod.Flush(); err != nil {
		t.Fatalf("a late free's refusal reached the wrapper: %v", err)
	}
	if n := r.d.WireStats().FrameErrors(); n != 1 || len(r.logs) != 1 || !strings.Contains(r.logs[0], "0xdead0") {
		t.Fatalf("unknown address: %d frame errors, log %q; want it counted and logged", n, r.logs)
	}

	err := r.cli.Post(ctx, &protocol.Message{Type: protocol.TypeFree, PID: 99, Addr: 0xdead0})
	if err == nil { // unless the refusal was back before Post returned
		err = r.mod.Flush()
	}
	var ref *protocol.Refusal
	if !errors.As(err, &ref) || !strings.Contains(err.Error(), "free refused: ") || !strings.Contains(err.Error(), core.ErrUnknownPID.Error()) {
		t.Fatalf("a free by an unknown pid surfaced as %v, want the refusal", err)
	}
	if n := r.d.WireStats().FrameErrors(); n != 2 || len(r.logs) != 2 {
		t.Errorf("unknown pid: %d frame errors, %d log lines; want 2 and 2", n, len(r.logs))
	}
	if err := r.mod.Flush(); err != nil {
		t.Errorf("the refusal came back twice: %v", err)
	}
}

// TestTwoWayReportsStillServed: a peer that negotiated the binary codec
// and still waits for its confirm's and free's replies — an older
// wrapper, a hand-written client — gets them.
func TestTwoWayReportsStillServed(t *testing.T) {
	r := newCycleRig(t)
	ctx := context.Background()
	for _, m := range []*protocol.Message{
		{Type: protocol.TypeAlloc, PID: 7, Size: int64(mib(2))},
		{Type: protocol.TypeConfirm, PID: 7, Size: int64(mib(2)), Addr: 0x1000},
		{Type: protocol.TypeFree, PID: 7, Addr: 0x1000},
	} {
		resp, err := r.cli.Call(ctx, m)
		if err != nil || !resp.OK {
			t.Fatalf("%s: %+v %v", m.Type, resp, err)
		}
		if m.Type == protocol.TypeFree && resp.Free != int64(mib(2)) {
			t.Errorf("free reply carries %d bytes, want the allocation's size", resp.Free)
		}
	}
	if got := r.used(t); got != 1 {
		t.Errorf("used = %d bytes, want the 1-byte context", got)
	}
}

// TestOneWaySuccessIsNotAnswered: the container handler answers a one-way
// confirm or free only when it refuses it — nobody waits for a success —
// and answers the two-way forms either way.
func TestOneWaySuccessIsNotAnswered(t *testing.T) {
	d := startDaemon(t, mib(1000))
	register(t, dialControl(t, d), "c", mib(900))
	h := d.Caller("c").h
	charge := func(t *testing.T) {
		if res, err := d.Core().RequestAlloc("c", 7, 64); err != nil || res.Decision != core.Accept {
			t.Fatalf("alloc: %+v %v", res, err)
		}
	}
	for _, tc := range []struct {
		name  string
		setup func(*testing.T)
		msg   protocol.Message
		want  int
	}{
		{"one-way confirm", charge, protocol.Message{Type: protocol.TypeConfirm, PID: 7, Size: 64, Addr: 0x100, NoReply: true}, 0},
		{"refused one-way confirm", nil, protocol.Message{Type: protocol.TypeConfirm, PID: 8, Size: 64, Addr: 0x200, NoReply: true}, 1},
		{"two-way confirm", charge, protocol.Message{Type: protocol.TypeConfirm, PID: 7, Size: 64, Addr: 0x300}, 1},
		{"one-way free", nil, protocol.Message{Type: protocol.TypeFree, PID: 7, Addr: 0x100, NoReply: true}, 0},
		{"refused one-way free", nil, protocol.Message{Type: protocol.TypeFree, PID: 99, Addr: 0x300, NoReply: true}, 1},
		{"two-way free", nil, protocol.Message{Type: protocol.TypeFree, PID: 7, Addr: 0x300}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.setup != nil {
				tc.setup(t)
			}
			calls := 0
			msg := tc.msg
			h.Handle(nil, &msg, func(m *protocol.Message) {
				calls++
				protocol.ReleaseMessage(m)
			})
			if calls != tc.want {
				t.Errorf("respond called %d times, want %d", calls, tc.want)
			}
		})
	}
	if info, err := d.Core().Info("c"); err != nil || info.Used != 1 {
		t.Errorf("used = %v (%v), want the 1-byte context: every success was applied", info.Used, err)
	}
}

// TestHandlerHistogramCountsRequests: convgpu_ipc_handler_seconds takes
// one sample per request a handler serves that wants a reply and no
// other — one a wrapped cycle (the alloc; its confirm and free are
// one-way) and one for the barrier on the container socket, one a
// register or close on the control socket, none for a codec probe, a
// frame that does not decode or a refused one-way frame — and the samples
// add up to less than the loop took. A cycle is two events, too.
func TestHandlerHistogramCountsRequests(t *testing.T) {
	r := newCycleRig(t)
	cont, ctl := r.d.obs.HandlerContainer, r.d.obs.HandlerControl
	// settled waits for a histogram to reach want — a sample is taken
	// after the reply is written — and checks it goes no further.
	settled := func(h *obs.Histogram, want uint64, what string) {
		t.Helper()
		waitFor(t, what, func() bool { return h.Count() >= want })
		if got := h.Count(); got != want {
			t.Errorf("%s: %d samples, want %d", what, got, want)
		}
	}

	const cycles = 500
	n0, s0 := cont.Count(), cont.Sum()
	e0 := len(r.d.obs.Tracer().Events("c"))
	start := time.Now()
	for i := 0; i < cycles; i++ {
		ptr, err := r.mod.Malloc(mib(1))
		if err == nil {
			err = r.mod.Free(ptr)
		}
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	if err := r.mod.Flush(); err != nil {
		t.Fatal(err)
	}
	// One sample a cycle, the alloc's: it runs from the read, so it holds
	// the confirm and the free that came in the same write; they are no
	// samples of their own.
	settled(cont, n0+cycles+1, "container socket after the cycles and the barrier")
	if sum, elapsed := cont.Sum()-s0, time.Since(start); sum <= 0 || sum >= elapsed {
		t.Errorf("samples sum to %v over a loop of %v", sum, elapsed)
	}
	if n := len(r.d.obs.Tracer().Events("c")) - e0; n != 2*cycles { // accept, free
		t.Errorf("%d trace events over %d cycles, want two a cycle", n, cycles)
	}

	c0 := ctl.Count()
	cc, err := ipc.DialNegotiated(context.Background(), r.d.ControlSocket())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if !cc.BinaryNegotiated() {
		t.Fatal("the control socket did not answer the codec probe")
	}
	y := register(t, cc, "y", mib(10))
	if !y.OK {
		t.Fatalf("register: %s", y.Error)
	}

	// By hand on y's socket: a frame that does not decode and a codec
	// probe are answered, not sampled; the heartbeat after them is.
	n1 := cont.Count()
	conn, err := net.Dial("unix", filepath.Join(y.SocketDir, protocol.SocketFileName))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	out := []byte(`{"type":"alloc","seq":1,"pid":1,"size":-1}` + "\n")
	out = protocol.AppendEncode(out, &protocol.Message{Type: protocol.TypeCodec, Seq: 2, Data: protocol.BinaryCodecToken})
	out = protocol.AppendEncode(out, &protocol.Message{Type: protocol.TypeHeartbeat, Seq: 3})
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	rd := bufio.NewReader(conn)
	for seq := uint64(1); seq <= 3; seq++ {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		if m, err := protocol.Decode(bytes.TrimSuffix(line, []byte("\n"))); err != nil || m.Seq != seq || m.OK == (seq == 1) {
			t.Fatalf("reply %d: %+v %v", seq, m, err)
		}
	}
	settled(cont, n1+1, "container socket after a bad frame, a probe and a heartbeat")
	if r.d.WireStats().FrameErrors() != 1 {
		t.Errorf("frame errors = %d, want the one bad frame", r.d.WireStats().FrameErrors())
	}

	// A refused one-way frame is answered, and is no sample either: the
	// barrier after it is one.
	n2 := cont.Count()
	perr := r.cli.Post(context.Background(), &protocol.Message{Type: protocol.TypeFree, PID: 99, Addr: 0xdead0})
	ferr := r.mod.Flush() // returns the refusal unless the Post did
	if !protocol.IsRefusal(cmp.Or(perr, ferr)) {
		t.Fatalf("a free by an unknown pid: Post %v, Flush %v; want the refusal", perr, ferr)
	}
	settled(cont, n2+1, "container socket after a refused one-way free and a barrier")

	resp, err := cc.Call(context.Background(), &protocol.Message{Type: protocol.TypeClose, Container: "y"})
	if err != nil || !resp.OK {
		t.Fatalf("close: %+v %v", resp, err)
	}
	settled(ctl, c0+2, "control socket after a register and a close")
}

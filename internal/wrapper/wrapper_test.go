package wrapper

import (
	"bufio"
	"context"
	"errors"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/cuda"
	"convgpu/internal/daemon"
	"convgpu/internal/errs"
	"convgpu/internal/gpu"
	"convgpu/internal/ipc"
	"convgpu/internal/protocol"
)

func mib(n int) bytesize.Size { return bytesize.Size(n) * bytesize.MiB }

// sched is a scheduler daemon serving a core from a temporary
// directory. Its containers register and close through the control
// socket, and their wrappers call through the daemon's socketless Caller.
type sched struct {
	*daemon.Daemon
	ctl *ipc.Client
	t   *testing.T
}

func startSched(t *testing.T, st *core.State) *sched {
	t.Helper()
	d, err := daemon.Start(daemon.Config{BaseDir: filepath.Join(t.TempDir(), "cv"), Core: st})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	ctl, err := ipc.Dial(d.ControlSocket())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctl.Close() })
	return &sched{Daemon: d, ctl: ctl, t: t}
}

// control sends a register or a close of id on the control socket (limit
// is a register's); a refusal fails the test.
func (s *sched) control(typ protocol.Type, id core.ContainerID, limit bytesize.Size) {
	s.t.Helper()
	resp, err := s.ctl.Call(context.Background(), &protocol.Message{Type: typ, Container: string(id), Limit: int64(limit)})
	if err == nil && !resp.OK {
		err = errors.New(resp.Error)
	}
	if err != nil {
		s.t.Fatalf("%s %s: %v", typ, id, err)
	}
}

func (s *sched) register(id core.ContainerID, limit bytesize.Size) {
	s.t.Helper()
	s.control(protocol.TypeRegister, id, limit)
}

func (s *sched) closeContainer(id core.ContainerID) {
	s.t.Helper()
	s.control(protocol.TypeClose, id, 0)
}

// rig wires a wrapper to a scheduler daemon and a simulated device,
// standing in for one container with one process.
type rig struct {
	dev  *gpu.Device
	st   *core.State
	mod  *Module
	rt   *cuda.Runtime
	spy  *spyCaller
	id   core.ContainerID
	tHan *testing.T
}

// spyCaller records messages on their way to the scheduler.
type spyCaller struct {
	inner Caller
	mu    sync.Mutex
	sent  []protocol.Message
}

func (s *spyCaller) Call(ctx context.Context, m *protocol.Message) (*protocol.Message, error) {
	s.mu.Lock()
	s.sent = append(s.sent, *m)
	s.mu.Unlock()
	return s.inner.Call(ctx, m)
}

func (s *spyCaller) Post(ctx context.Context, m *protocol.Message) error {
	s.mu.Lock()
	s.sent = append(s.sent, *m)
	s.mu.Unlock()
	return s.inner.Post(ctx, m)
}

func (s *spyCaller) byType(t protocol.Type) []protocol.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []protocol.Message
	for _, m := range s.sent {
		if m.Type == t {
			out = append(out, m)
		}
	}
	return out
}

func newRig(t *testing.T, limit bytesize.Size) *rig {
	t.Helper()
	dev := gpu.New(gpu.K20m())
	st := core.MustNew(core.Config{Capacity: 5 * bytesize.GiB})
	s := startSched(t, st)
	id := core.ContainerID("c1")
	s.register(id, limit)
	spy := &spyCaller{inner: s.Caller(id)}
	rt := cuda.NewRuntime(dev, 100)
	mod := New(rt, spy, 100)
	return &rig{dev: dev, st: st, mod: mod, rt: rt, spy: spy, id: id, tHan: t}
}

func TestInterceptedAPIsMatchTableII(t *testing.T) {
	want := map[string]bool{
		"cudaMalloc":                true,
		"cudaMallocManaged":         true,
		"cudaMallocPitch":           true,
		"cudaMalloc3D":              true,
		"cudaFree":                  true,
		"cudaMemGetInfo":            true,
		"cudaGetDeviceProperties":   true,
		"__cudaUnregisterFatBinary": true,
	}
	got := InterceptedAPIs()
	if len(got) != len(want) {
		t.Fatalf("InterceptedAPIs() has %d entries, want %d (Table II)", len(got), len(want))
	}
	for _, api := range got {
		if !want[api] {
			t.Errorf("unexpected intercepted API %q", api)
		}
	}
}

// TestInterceptedAPIsDecodeAllocationFree: the binary codec interns
// exactly the API names the wrapper can send, so the daemon decodes any
// real request without allocating. A name added here without a matching
// intern case in package protocol fails instead of silently costing an
// allocation per call.
func TestInterceptedAPIsDecodeAllocationFree(t *testing.T) {
	for _, api := range InterceptedAPIs() {
		m := &protocol.Message{Type: protocol.TypeFree, Seq: 9, PID: 41, Addr: 160, API: api}
		frame, ok := protocol.AppendEncodeBinary(nil, m)
		if !ok {
			t.Fatalf("%s: no binary form", api)
		}
		op, _, seq, err := protocol.ParseBinaryHeader(frame)
		if err != nil {
			t.Fatal(err)
		}
		out := new(protocol.Message)
		if n := testing.AllocsPerRun(100, func() {
			if err := protocol.DecodeBinaryInto(out, op, seq, frame[protocol.BinaryHeaderSize:]); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("binary decode of api %q allocates %.1f/op (missing intern case?)", api, n)
		}
		if out.API != api {
			t.Errorf("api %q decoded as %q", api, out.API)
		}
	}
}

// TestWrapperDowngradesToJSON: a wrapper dialing a scheduler that
// predates the codec verb — it answers the probe like any unknown type,
// with an error — stays on JSON and completes Malloc/Free. The server
// below reads lines only, so a single binary frame would fail the call.
func TestWrapperDowngradesToJSON(t *testing.T) {
	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "old.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	seen := make(chan protocol.Type, 16)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		sc := bufio.NewScanner(c)
		for sc.Scan() {
			var req protocol.Message
			resp := &protocol.Message{Type: protocol.TypeResponse}
			if err := protocol.DecodeInto(&req, sc.Bytes()); err != nil {
				resp.Error = err.Error()
			} else if req.Type == protocol.TypeCodec {
				resp.Error = `protocol: unknown message type "codec"`
			} else {
				resp.OK, resp.Decision = true, protocol.DecisionAccept
			}
			resp.Seq = req.Seq
			seen <- req.Type
			c.Write(protocol.AppendEncode(nil, resp))
		}
	}()

	cli, err := ipc.DialNegotiated(context.Background(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if cli.BinaryNegotiated() {
		t.Fatal("a refused probe switched the wrapper's connection to binary")
	}
	mod := New(cuda.NewRuntime(gpu.New(gpu.K20m()), 7), cli, 7)
	ptr, err := mod.Malloc(mib(1))
	if err != nil {
		t.Fatalf("Malloc over JSON: %v", err)
	}
	if err := mod.Free(ptr); err != nil {
		t.Fatalf("Free over JSON: %v", err)
	}
	mod.Flush()
	for _, want := range []protocol.Type{protocol.TypeCodec, protocol.TypeAlloc, protocol.TypeConfirm, protocol.TypeFree} {
		if got := <-seen; got != want {
			t.Fatalf("old server decoded %q, want %q", got, want)
		}
	}
}

func TestMallocAcceptedAndTracked(t *testing.T) {
	r := newRig(t, mib(1024))
	ptr, err := r.mod.Malloc(mib(100))
	if err != nil {
		t.Fatal(err)
	}
	// Device really allocated.
	if size, pid, ok := r.dev.Lookup(uint64(ptr)); !ok || size != mib(100) || pid != 100 {
		t.Fatalf("device Lookup = (%v,%v,%v)", size, pid, ok)
	}
	// Scheduler saw alloc + confirm with the same address.
	allocs := r.spy.byType(protocol.TypeAlloc)
	confirms := r.spy.byType(protocol.TypeConfirm)
	if len(allocs) != 1 || len(confirms) != 1 {
		t.Fatalf("messages: %d allocs, %d confirms", len(allocs), len(confirms))
	}
	if allocs[0].API != "cudaMalloc" || allocs[0].Size != int64(mib(100)) {
		t.Fatalf("alloc msg = %+v", allocs[0])
	}
	if confirms[0].Addr != uint64(ptr) {
		t.Fatalf("confirm addr = %#x, want %#x", confirms[0].Addr, ptr)
	}
	// Core usage includes the allocation + context overhead.
	info, err := r.st.Info(r.id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Used != mib(100)+core.DefaultContextOverhead {
		t.Fatalf("core used = %v", info.Used)
	}
}

func TestMallocRejectedOverLimit(t *testing.T) {
	r := newRig(t, mib(128))
	// 128 + 66 overhead > 128 limit: scheduler rejects; user sees the
	// CUDA OOM error (tagged with the reject sentinel); nothing reaches
	// the device.
	_, err := r.mod.Malloc(mib(128))
	if !errors.Is(err, cuda.ErrorMemoryAllocation) {
		t.Fatalf("err = %v, want cudaErrorMemoryAllocation", err)
	}
	if !errors.Is(err, errs.ErrRejected) {
		t.Fatalf("err = %v, want errs.ErrRejected", err)
	}
	if r.dev.Used() != 0 {
		t.Fatalf("device used = %v after reject", r.dev.Used())
	}
	if len(r.spy.byType(protocol.TypeConfirm)) != 0 {
		t.Fatal("confirm sent for rejected alloc")
	}
}

func TestMallocInvalidSizeShortCircuits(t *testing.T) {
	r := newRig(t, mib(128))
	if _, err := r.mod.Malloc(0); err != cuda.ErrorInvalidValue {
		t.Fatalf("Malloc(0) err = %v", err)
	}
	if len(r.spy.sent) != 0 {
		t.Fatal("invalid size reached the scheduler")
	}
}

func TestMallocPitchAdjustsSize(t *testing.T) {
	r := newRig(t, mib(1024))
	ptr, pitch, err := r.mod.MallocPitch(100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if pitch != 512 {
		t.Fatalf("pitch = %v, want 512", pitch)
	}
	if ptr == 0 {
		t.Fatal("null pitched pointer")
	}
	allocs := r.spy.byType(protocol.TypeAlloc)
	if len(allocs) != 1 || allocs[0].Size != int64(512*1000) {
		t.Fatalf("accounted pitched size = %d, want %d", allocs[0].Size, 512*1000)
	}
}

func TestMallocManagedRoundsTo128MiB(t *testing.T) {
	r := newRig(t, mib(1024))
	if _, err := r.mod.MallocManaged(mib(1)); err != nil {
		t.Fatal(err)
	}
	allocs := r.spy.byType(protocol.TypeAlloc)
	if len(allocs) != 1 || allocs[0].Size != int64(mib(128)) {
		t.Fatalf("accounted managed size = %d, want 128MiB", allocs[0].Size)
	}
}

func TestMalloc3DAccountsPitchedRows(t *testing.T) {
	r := newRig(t, mib(1024))
	pp, err := r.mod.Malloc3D(cuda.Extent{Width: 100, Height: 10, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pp.Pitch != 512 {
		t.Fatalf("pitch = %v", pp.Pitch)
	}
	allocs := r.spy.byType(protocol.TypeAlloc)
	if allocs[0].Size != int64(512*40) {
		t.Fatalf("accounted 3D size = %d, want %d", allocs[0].Size, 512*40)
	}
}

func TestFirstPitchCallFetchesProperties(t *testing.T) {
	r := newRig(t, mib(1024))
	// Count properties fetches indirectly: wrap the runtime with a
	// counting API.
	counter := &countingAPI{API: r.rt}
	mod := New(counter, r.spy.inner, 100)
	if _, _, err := mod.MallocPitch(100, 10); err != nil {
		t.Fatal(err)
	}
	if counter.props != 1 {
		t.Fatalf("first pitch fetched properties %d times, want 1", counter.props)
	}
	if _, _, err := mod.MallocPitch(100, 10); err != nil {
		t.Fatal(err)
	}
	if counter.props != 1 {
		t.Fatalf("second pitch re-fetched properties (%d total)", counter.props)
	}
}

type countingAPI struct {
	cuda.API
	props int
}

func (c *countingAPI) GetDeviceProperties() (gpu.Properties, error) {
	c.props++
	return c.API.GetDeviceProperties()
}

func TestFreeReportsToScheduler(t *testing.T) {
	r := newRig(t, mib(1024))
	ptr, err := r.mod.Malloc(mib(50))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.mod.Free(ptr); err != nil {
		t.Fatal(err)
	}
	r.mod.Flush() // free reports are fire-and-forget; settle first
	frees := r.spy.byType(protocol.TypeFree)
	if len(frees) != 1 || frees[0].Addr != uint64(ptr) {
		t.Fatalf("free messages = %+v", frees)
	}
	info, _ := r.st.Info(r.id)
	if info.Used != core.DefaultContextOverhead {
		t.Fatalf("core used after free = %v, want just the context overhead", info.Used)
	}
	// Freeing a bogus pointer fails locally and is not reported.
	if err := r.mod.Free(ptr); err != cuda.ErrorInvalidDevicePointer {
		t.Fatalf("double free err = %v", err)
	}
	if len(r.spy.byType(protocol.TypeFree)) != 1 {
		t.Fatal("failed free was reported to the scheduler")
	}
}

func TestMemGetInfoVirtualizedAndDeviceFree(t *testing.T) {
	r := newRig(t, mib(1024))
	free, total, err := r.mod.MemGetInfo()
	if err != nil {
		t.Fatal(err)
	}
	if total != mib(1024) || free != mib(1024) {
		t.Fatalf("MemGetInfo = (%v,%v), want the container's 1 GiB view", free, total)
	}
	if _, err := r.mod.Malloc(mib(100)); err != nil {
		t.Fatal(err)
	}
	free, total, _ = r.mod.MemGetInfo()
	if total != mib(1024) || free != mib(1024)-mib(100)-core.DefaultContextOverhead {
		t.Fatalf("MemGetInfo after alloc = (%v,%v)", free, total)
	}
	// The raw device view is different — the wrapper hides it.
	devFree, devTotal := r.dev.MemInfo()
	if devTotal == total {
		t.Fatalf("device total %v leaked through the wrapper", devTotal)
	}
	_ = devFree
}

func TestUnregisterFatBinaryCleansUp(t *testing.T) {
	r := newRig(t, mib(1024))
	if _, err := r.mod.Malloc(mib(200)); err != nil {
		t.Fatal(err) // leaked deliberately
	}
	if err := r.mod.UnregisterFatBinary(); err != nil {
		t.Fatal(err)
	}
	if r.dev.Used() != 0 {
		t.Fatalf("device used = %v after unregister", r.dev.Used())
	}
	info, _ := r.st.Info(r.id)
	if info.Used != 0 {
		t.Fatalf("core used = %v after unregister", info.Used)
	}
	// Idempotent.
	if err := r.mod.UnregisterFatBinary(); err != nil {
		t.Fatal(err)
	}
	if n := len(r.spy.byType(protocol.TypeProcExit)); n != 1 {
		t.Fatalf("procexit sent %d times, want 1", n)
	}
}

func TestPassThroughAPIs(t *testing.T) {
	r := newRig(t, mib(1024))
	ptr, err := r.mod.Malloc(mib(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.mod.Memcpy(ptr, mib(10), cuda.MemcpyHostToDevice); err != nil {
		t.Fatal(err)
	}
	if err := r.mod.LaunchKernel(cuda.Kernel{Name: "k", Duration: 0}, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.mod.DeviceSynchronize(); err != nil {
		t.Fatal(err)
	}
	// None of those touched the scheduler.
	for _, typ := range []protocol.Type{protocol.TypeAlloc, protocol.TypeConfirm} {
		if n := len(r.spy.byType(typ)); n != 1 {
			t.Fatalf("%s count = %d, want only the Malloc's", typ, n)
		}
	}
}

func TestAbortOnDeviceFailure(t *testing.T) {
	// The scheduler accepts (capacity 5 GiB) but the device is
	// artificially small: the real allocation fails, and the wrapper
	// hands the charge back via abort.
	dev := gpu.New(gpu.Properties{
		Name: "tiny", TotalGlobalMem: mib(100),
		TexturePitchAlignment: 512, ManagedGranularity: mib(128),
		ConcurrentKernels: 32, ContextOverhead: mib(1),
	})
	st := core.MustNew(core.Config{Capacity: 5 * bytesize.GiB, ContextOverhead: 1})
	s := startSched(t, st)
	s.register("c1", bytesize.GiB)
	mod := New(cuda.NewRuntime(dev, 7), s.Caller("c1"), 7)
	if _, err := mod.Malloc(mib(500)); err != cuda.ErrorMemoryAllocation {
		t.Fatalf("err = %v, want cudaErrorMemoryAllocation from the device", err)
	}
	info, _ := st.Info("c1")
	if info.Used != 1 { // only the overhead byte stayed charged
		t.Fatalf("core used after aborted alloc = %v", info.Used)
	}
}

func TestSuspensionBlocksMallocUntilResume(t *testing.T) {
	dev := gpu.New(gpu.K20m())
	st := core.MustNew(core.Config{Capacity: mib(1000), ContextOverhead: 1})
	s := startSched(t, st)
	s.register("big", mib(700))
	s.register("small", mib(600))
	modBig := New(cuda.NewRuntime(dev, 1), s.Caller("big"), 1)
	modSmall := New(cuda.NewRuntime(dev, 2), s.Caller("small"), 2)
	if _, err := modBig.Malloc(mib(600)); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := modSmall.Malloc(mib(500)) // grant 300: suspends
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("suspended Malloc returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	s.closeContainer("big")
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("resumed Malloc failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Malloc never resumed")
	}
	info, _ := st.Info("small")
	if info.Used != mib(500)+1 {
		t.Fatalf("small used = %v", info.Used)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSuspendedMallocRefusedWhenDaemonCloses: a daemon that shuts down
// refuses the allocation it was holding with a wire code, and the
// program gets a defined error: the out-of-memory error a CUDA program
// handles, carrying the sentinel that says the scheduler went away.
func TestSuspendedMallocRefusedWhenDaemonCloses(t *testing.T) {
	dev := gpu.New(gpu.K20m())
	st := core.MustNew(core.Config{Capacity: mib(1000), ContextOverhead: 1})
	s := startSched(t, st)
	s.register("big", mib(700))
	s.register("small", mib(600))
	if _, err := New(cuda.NewRuntime(dev, 1), s.Caller("big"), 1).Malloc(mib(600)); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := New(cuda.NewRuntime(dev, 2), s.Caller("small"), 2).Malloc(mib(500)) // grant 300: suspends
		got <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if info, err := st.Info("small"); err == nil && info.Pending > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Malloc never suspended")
		}
	}
	s.Daemon.Close()
	select {
	case err := <-got:
		if !errors.Is(err, errs.ErrDaemonUnavailable) || !errors.Is(err, cuda.ErrorMemoryAllocation) {
			t.Fatalf("err = %v, want ErrDaemonUnavailable and cudaErrorMemoryAllocation", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("suspended Malloc outlived the daemon")
	}
}

// divergedScheduler grants every allocation and then refuses to account
// for some of them: a confirm of exactly badSize bytes is answered "not
// charged", the way a scheduler whose view has diverged answers. It
// counts the process exits it is told of and the heartbeats.
type divergedScheduler struct {
	badSize    int64
	procexits  atomic.Int64
	heartbeats atomic.Int64
}

func (h *divergedScheduler) Handle(_ *ipc.ServerConn, msg *protocol.Message, respond func(*protocol.Message)) {
	m := protocol.AcquireMessage()
	switch {
	case msg.Type == protocol.TypeConfirm && msg.Size == h.badSize:
		m.Error, m.Code = "core: allocation was never charged", protocol.CodeUnavailable
	case msg.Type == protocol.TypeAlloc:
		m.OK, m.Decision = true, protocol.DecisionAccept
	case msg.Type == protocol.TypeProcExit:
		h.procexits.Add(1)
		m.OK = true
	case msg.Type == protocol.TypeHeartbeat:
		h.heartbeats.Add(1)
		m.OK = true
	default:
		m.OK = true
	}
	respond(m)
}

func (*divergedScheduler) Closed(*ipc.ServerConn) {}

// TestRefusedConfirmFailsNextCall: the confirm is one-way, so a refused
// one cannot fail the Malloc that sent it; it fails the very next call
// into the wrapper instead — whichever call that is — loudly, with the
// text a refused confirm always had and the sentinel of the scheduler's
// code, once. Nothing is left on the device by a Malloc that failed
// this way. The call that carries the refusal back is still sent: the
// scheduler hears of the process's exit exactly once, whether the
// refusal was waiting when UnregisterFatBinary started or not.
func TestRefusedConfirmFailsNextCall(t *testing.T) {
	next := map[string]func(*Module) error{
		"Malloc":              func(m *Module) error { _, err := m.Malloc(mib(1)); return err },
		"MallocPitch":         func(m *Module) error { _, _, err := m.MallocPitch(100, 10); return err },
		"MemGetInfo":          func(m *Module) error { _, _, err := m.MemGetInfo(); return err },
		"Flush":               (*Module).Flush,
		"UnregisterFatBinary": (*Module).UnregisterFatBinary,
	}
	for name, call := range next {
		t.Run(name, func(t *testing.T) {
			sched := &divergedScheduler{badSize: int64(mib(3))}
			srv, err := ipc.Listen(filepath.Join(t.TempDir(), "s.sock"), sched)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			cli, err := ipc.DialNegotiated(context.Background(), srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			if !cli.BinaryNegotiated() {
				t.Fatal("no binary codec: confirms would not be one-way")
			}
			dev := gpu.New(gpu.K20m())
			mod := New(cuda.NewRuntime(dev, 7), cli, 7)
			if _, err := mod.Malloc(mib(2)); err != nil {
				t.Fatal(err)
			}
			used := dev.Used()
			ptr, err := mod.Malloc(mib(3))
			if ptr == 0 {
				t.Fatalf("Malloc whose confirm is refused returned no pointer (%v): the device allocation succeeded", err)
			}
			if err == nil { // unless the refusal was back before Malloc returned
				time.Sleep(2 * time.Millisecond) // let it arrive: the next call finds it waiting
				err = call(mod)
			}
			if err == nil || !strings.Contains(err.Error(), "wrapper: ") ||
				!strings.Contains(err.Error(), "confirm refused: core: allocation was never charged") {
				t.Fatalf("%s after a refused confirm = %v, want it to fail on the refusal", name, err)
			}
			if !errors.Is(err, errs.ErrDaemonUnavailable) {
				t.Errorf("refusal %v does not match its code's sentinel", err)
			}
			if got := dev.Used() - used; got != mib(3) && name != "UnregisterFatBinary" {
				t.Errorf("device holds %v beyond the first allocation, want only the 3 MiB one", got)
			}
			if name != "UnregisterFatBinary" {
				if _, _, err := mod.MemGetInfo(); err != nil {
					t.Errorf("the refusal failed a second call: %v", err)
				}
			}
			if err := mod.UnregisterFatBinary(); err != nil { // a no-op if it was the next call
				t.Errorf("UnregisterFatBinary: %v", err)
			}
			if got := sched.procexits.Load(); got != 1 {
				t.Errorf("scheduler was told of %d process exits, want 1", got)
			}
		})
	}
}

// TestHeartbeatKeepsRefusal: the heartbeat loop makes calls of its own,
// so a confirm's refusal may come back to it instead of to the program.
// It is not lost there: the next call into the module returns it, once.
func TestHeartbeatKeepsRefusal(t *testing.T) {
	sched := &divergedScheduler{badSize: int64(mib(3))}
	srv, err := ipc.Listen(filepath.Join(t.TempDir(), "s.sock"), sched)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := ipc.DialNegotiated(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	mod := New(cuda.NewRuntime(gpu.New(gpu.K20m()), 7), cli, 7)
	if _, err := mod.Malloc(mib(3)); err != nil {
		t.Skipf("the refusal was back before Malloc returned (%v): nothing left for a heartbeat to find", err)
	}
	stop := mod.StartHeartbeats(time.Millisecond)
	for deadline := time.Now().Add(5 * time.Second); sched.heartbeats.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("heartbeats never flowed")
		}
	}
	stop()
	_, _, err = mod.MemGetInfo()
	if err == nil || !strings.Contains(err.Error(), "confirm refused: core: allocation was never charged") ||
		!errors.Is(err, errs.ErrDaemonUnavailable) {
		t.Fatalf("call after a heartbeat took the refusal = %v, want the refusal", err)
	}
	if _, _, err := mod.MemGetInfo(); err != nil {
		t.Errorf("the refusal came back twice: %v", err)
	}
}

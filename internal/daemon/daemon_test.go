package daemon

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/ipc"
	"convgpu/internal/leak"
	"convgpu/internal/protocol"
)

func mib(n int) bytesize.Size { return bytesize.Size(n) * bytesize.MiB }

func startDaemon(t *testing.T, capacity bytesize.Size) *Daemon {
	t.Helper()
	// Registered first, checked last: the daemon closed by the cleanup
	// below must leave no goroutine behind.
	leak.Check(t)
	st := core.MustNew(core.Config{Capacity: capacity, ContextOverhead: 1})
	d, err := Start(Config{BaseDir: filepath.Join(t.TempDir(), "cv"), Core: st})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func dialControl(t *testing.T, d *Daemon) *ipc.Client {
	t.Helper()
	cli, err := ipc.Dial(d.ControlSocket())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

func register(t *testing.T, ctl *ipc.Client, id string, limit bytesize.Size) *protocol.Message {
	t.Helper()
	resp, err := ctl.Call(context.Background(), &protocol.Message{
		Type: protocol.TypeRegister, Container: id, Limit: int64(limit),
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func dialContainer(t *testing.T, resp *protocol.Message) *ipc.Client {
	t.Helper()
	cli, err := ipc.Dial(filepath.Join(resp.SocketDir, protocol.SocketFileName))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

func TestStartValidation(t *testing.T) {
	if _, err := Start(Config{}); err == nil {
		t.Error("Start without core succeeded")
	}
	st := core.MustNew(core.Config{Capacity: mib(100)})
	if _, err := Start(Config{Core: st}); err == nil {
		t.Error("Start without base dir succeeded")
	}
}

func TestRegisterPreparesContainerDir(t *testing.T) {
	d := startDaemon(t, mib(1000))
	ctl := dialControl(t, d)
	resp := register(t, ctl, "c1", mib(400))
	if !resp.OK {
		t.Fatalf("register failed: %s", resp.Error)
	}
	if resp.Granted != int64(mib(400)) {
		t.Fatalf("granted = %d, want full 400MiB", resp.Granted)
	}
	if resp.SocketDir == "" {
		t.Fatal("no socket dir returned")
	}
	// The directory must contain the wrapper module copy and the socket.
	mod, err := os.ReadFile(filepath.Join(resp.SocketDir, protocol.ModuleFileName))
	if err != nil {
		t.Fatalf("wrapper module missing: %v", err)
	}
	if !strings.Contains(string(mod), "c1") {
		t.Fatalf("wrapper module content = %q", mod)
	}
	if _, err := os.Stat(filepath.Join(resp.SocketDir, protocol.SocketFileName)); err != nil {
		t.Fatalf("container socket missing: %v", err)
	}
}

func TestRegisterDuplicateFails(t *testing.T) {
	d := startDaemon(t, mib(1000))
	ctl := dialControl(t, d)
	register(t, ctl, "c1", mib(100))
	resp := register(t, ctl, "c1", mib(100))
	if resp.OK {
		t.Fatal("duplicate register succeeded")
	}
	if !strings.Contains(resp.Error, "already registered") {
		t.Fatalf("error = %q", resp.Error)
	}
}

func TestRegisterOverCapacityFails(t *testing.T) {
	d := startDaemon(t, mib(1000))
	ctl := dialControl(t, d)
	resp := register(t, ctl, "big", mib(2000))
	if resp.OK {
		t.Fatal("over-capacity register succeeded")
	}
}

func TestAllocAcceptRejectFlow(t *testing.T) {
	d := startDaemon(t, mib(1000))
	ctl := dialControl(t, d)
	cc := dialContainer(t, register(t, ctl, "c1", mib(400)))

	ctx := context.Background()
	resp, err := cc.Call(ctx, &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: int64(mib(100)), API: "cudaMalloc"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Decision != protocol.DecisionAccept {
		t.Fatalf("alloc resp = %+v", resp)
	}
	resp, err = cc.Call(ctx, &protocol.Message{Type: protocol.TypeConfirm, PID: 1, Size: int64(mib(100)), Addr: 0xAA})
	if err != nil || !resp.OK {
		t.Fatalf("confirm resp = %+v err=%v", resp, err)
	}
	// Over the container limit: reject.
	resp, err = cc.Call(ctx, &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: int64(mib(350))})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Decision != protocol.DecisionReject {
		t.Fatalf("over-limit resp = %+v, want reject", resp)
	}
	// MemInfo: the virtualized view.
	resp, err = cc.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo})
	if err != nil || !resp.OK {
		t.Fatal(err)
	}
	if resp.Total != int64(mib(400)) {
		t.Fatalf("meminfo total = %d, want the 400MiB limit", resp.Total)
	}
	// Free returns the size.
	resp, err = cc.Call(ctx, &protocol.Message{Type: protocol.TypeFree, PID: 1, Addr: 0xAA})
	if err != nil || !resp.OK {
		t.Fatalf("free resp = %+v err=%v", resp, err)
	}
	if resp.Free != int64(mib(100)) {
		t.Fatalf("free size = %d", resp.Free)
	}
}

func TestSuspendResumeAcrossContainers(t *testing.T) {
	d := startDaemon(t, mib(1000))
	ctl := dialControl(t, d)
	ccA := dialContainer(t, register(t, ctl, "a", mib(700)))
	respB := register(t, ctl, "b", mib(600)) // grant 300 partial
	ccB := dialContainer(t, respB)

	ctx := context.Background()
	if resp, err := ccA.Call(ctx, &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: int64(mib(600))}); err != nil || resp.Decision != protocol.DecisionAccept {
		t.Fatalf("a's alloc: %+v %v", resp, err)
	}

	// b's 500 MiB request suspends: the call blocks.
	done := make(chan *protocol.Message, 1)
	go func() {
		resp, err := ccB.Call(ctx, &protocol.Message{Type: protocol.TypeAlloc, PID: 2, Size: int64(mib(500))})
		if err == nil {
			done <- resp
		} else {
			close(done)
		}
	}()
	select {
	case <-done:
		t.Fatal("suspended alloc returned early")
	case <-time.After(50 * time.Millisecond):
	}

	// The plugin reports a's exit: close signal. b resumes.
	if resp, err := ctl.Call(ctx, &protocol.Message{Type: protocol.TypeClose, Container: "a"}); err != nil || !resp.OK {
		t.Fatalf("close: %+v %v", resp, err)
	}
	select {
	case resp, ok := <-done:
		if !ok {
			t.Fatal("suspended alloc failed")
		}
		if resp.Decision != protocol.DecisionAccept {
			t.Fatalf("resumed resp = %+v", resp)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("suspended alloc never resumed after close")
	}
}

func TestCloseCancelsSuspendedRequests(t *testing.T) {
	d := startDaemon(t, mib(1000))
	ctl := dialControl(t, d)
	ccA := dialContainer(t, register(t, ctl, "a", mib(700)))
	ccB := dialContainer(t, register(t, ctl, "b", mib(600)))

	ctx := context.Background()
	if _, err := ccA.Call(ctx, &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: int64(mib(600))}); err != nil {
		t.Fatal(err)
	}
	done := make(chan *protocol.Message, 1)
	go func() {
		resp, err := ccB.Call(ctx, &protocol.Message{Type: protocol.TypeAlloc, PID: 2, Size: int64(mib(500))})
		if err == nil {
			done <- resp
		} else {
			close(done)
		}
	}()
	time.Sleep(50 * time.Millisecond)
	// b itself is closed while suspended: its parked request is released
	// with an error.
	if resp, err := ctl.Call(ctx, &protocol.Message{Type: protocol.TypeClose, Container: "b"}); err != nil || !resp.OK {
		t.Fatalf("close: %+v %v", resp, err)
	}
	select {
	case resp, ok := <-done:
		if ok && resp.OK {
			t.Fatalf("cancelled request got OK response: %+v", resp)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled request never released")
	}
}

func TestProcExitReleasesMemory(t *testing.T) {
	d := startDaemon(t, mib(1000))
	ctl := dialControl(t, d)
	cc := dialContainer(t, register(t, ctl, "c", mib(400)))
	ctx := context.Background()
	if _, err := cc.Call(ctx, &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: int64(mib(100))}); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Call(ctx, &protocol.Message{Type: protocol.TypeConfirm, PID: 1, Size: int64(mib(100)), Addr: 0x1}); err != nil {
		t.Fatal(err)
	}
	resp, err := cc.Call(ctx, &protocol.Message{Type: protocol.TypeProcExit, PID: 1})
	if err != nil || !resp.OK {
		t.Fatalf("procexit: %+v %v", resp, err)
	}
	if bytesize.Size(resp.Free) != mib(100)+1 { // alloc + 1B overhead
		t.Fatalf("procexit released %d", resp.Free)
	}
	info, err := d.Core().Info("c")
	if err != nil {
		t.Fatal(err)
	}
	if info.Used != 0 {
		t.Fatalf("used after procexit = %v", info.Used)
	}
}

func TestAbortReturnsCharge(t *testing.T) {
	d := startDaemon(t, mib(1000))
	ctl := dialControl(t, d)
	cc := dialContainer(t, register(t, ctl, "c", mib(400)))
	ctx := context.Background()
	if _, err := cc.Call(ctx, &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: int64(mib(100))}); err != nil {
		t.Fatal(err)
	}
	resp, err := cc.Call(ctx, &protocol.Message{Type: protocol.TypeAbort, PID: 1, Size: int64(mib(100))})
	if err != nil || !resp.OK {
		t.Fatalf("abort: %+v %v", resp, err)
	}
	info, _ := d.Core().Info("c")
	if info.Used != 1 {
		t.Fatalf("used after abort = %v, want 1B overhead", info.Used)
	}
}

func TestUnknownContainerErrors(t *testing.T) {
	d := startDaemon(t, mib(1000))
	ctl := dialControl(t, d)
	resp, err := ctl.Call(context.Background(), &protocol.Message{Type: protocol.TypeClose, Container: "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("close of unknown container succeeded")
	}
}

// TestCallerRejectAndErrorResponses: through the socketless Caller, an
// over-limit allocation is a reject decision, and a bad free, a verb for
// an unknown container and an unknown verb are refused responses, not
// transport errors; the unknown container's carries the code a wrapper
// maps back to its sentinel.
func TestCallerRejectAndErrorResponses(t *testing.T) {
	d := startDaemon(t, mib(1000))
	register(t, dialControl(t, d), "a", mib(100))
	ctx := context.Background()
	call := func(id core.ContainerID, m *protocol.Message) *protocol.Message {
		t.Helper()
		resp, err := d.Caller(id).Call(ctx, m)
		if err != nil {
			t.Fatalf("%s: transport error %v", m.Type, err)
		}
		return resp
	}
	if resp := call("a", &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: int64(mib(200))}); resp.Decision != protocol.DecisionReject {
		t.Fatalf("over-limit alloc = %+v, want reject", resp)
	}
	if resp := call("a", &protocol.Message{Type: protocol.TypeFree, PID: 1, Addr: 0xDEAD}); resp.OK {
		t.Fatalf("free of unknown addr succeeded: %+v", resp)
	}
	if resp := call("ghost", &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: 1}); resp.OK || resp.Code != protocol.CodeUnknownContainer {
		t.Fatalf("alloc for an unknown container = %+v, want refused with %q", resp, protocol.CodeUnknownContainer)
	}
	if resp := call("a", &protocol.Message{Type: "bogus"}); resp.OK {
		t.Fatalf("bogus type accepted: %+v", resp)
	}
}

// TestCloseReturnsReleased: the close signal hands the container's whole
// grant back and says how much; a close of a container never registered
// is refused.
func TestCloseReturnsReleased(t *testing.T) {
	d := startDaemon(t, mib(1000))
	ctl := dialControl(t, d)
	register(t, ctl, "a", mib(400))
	ctx := context.Background()
	resp, err := ctl.Call(ctx, &protocol.Message{Type: protocol.TypeClose, Container: "a"})
	if err != nil || !resp.OK || bytesize.Size(resp.Free) != mib(400) {
		t.Fatalf("close: %+v %v, want the 400MiB grant released", resp, err)
	}
	resp, err = ctl.Call(ctx, &protocol.Message{Type: protocol.TypeClose, Container: "zzz"})
	if err != nil || resp.OK {
		t.Fatalf("close of unknown container: %+v %v, want refused", resp, err)
	}
}

func TestControlRejectsContainerMessages(t *testing.T) {
	d := startDaemon(t, mib(1000))
	ctl := dialControl(t, d)
	resp, err := ctl.Call(context.Background(), &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: 10})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("alloc on control socket succeeded")
	}
}

func TestDaemonCloseReleasesParked(t *testing.T) {
	d := startDaemon(t, mib(1000))
	ctl := dialControl(t, d)
	ccA := dialContainer(t, register(t, ctl, "a", mib(700)))
	ccB := dialContainer(t, register(t, ctl, "b", mib(600)))
	ctx := context.Background()
	if _, err := ccA.Call(ctx, &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: int64(mib(600))}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ccB.Call(ctx, &protocol.Message{Type: protocol.TypeAlloc, PID: 2, Size: int64(mib(500))})
	}()
	time.Sleep(50 * time.Millisecond)
	d.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("parked request survived daemon shutdown")
	}
}

// TestParkAfterCloseIsCoded: an allocation suspended while the daemon
// shuts down, parking only after Close took the parked table, is refused
// with the code Close gives the ones it found parked.
func TestParkAfterCloseIsCoded(t *testing.T) {
	d := startDaemon(t, mib(1000))
	ctl := dialControl(t, d)
	register(t, ctl, "big", mib(700))
	register(t, ctl, "small", mib(600))
	ctx := context.Background()
	if resp, err := d.Caller("big").Call(ctx, &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: int64(mib(600))}); err != nil || resp.Decision != protocol.DecisionAccept {
		t.Fatalf("big's alloc: %+v %v", resp, err)
	}
	d.beforePark = func() { d.Close() }
	resp, err := d.Caller("small").Call(ctx, &protocol.Message{Type: protocol.TypeAlloc, PID: 2, Size: int64(mib(500))})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != protocol.CodeUnavailable {
		t.Fatalf("alloc parked after Close = %+v, want refused with %q", resp, protocol.CodeUnavailable)
	}
}

// TestContainerDirsAreDistinct: two IDs that differ only in a byte a
// directory name cannot hold get two directories, and each wrapper
// reaches its own session; ".." gets one inside containers/, not the
// base directory.
func TestContainerDirsAreDistinct(t *testing.T) {
	d := startDaemon(t, mib(1000))
	ctl := dialControl(t, d)
	limits := map[string]bytesize.Size{"a/b": mib(10), "a_b": mib(20), "..": mib(30), ".": mib(40)}
	dirs := map[string]string{}
	for _, id := range []string{"a/b", "a_b", "..", "."} {
		resp := register(t, ctl, id, limits[id])
		if !resp.OK {
			t.Fatalf("register %q: %s", id, resp.Error)
		}
		if filepath.Base(filepath.Dir(resp.SocketDir)) != "containers" {
			t.Fatalf("%q's directory %s is not inside containers/", id, resp.SocketDir)
		}
		for other, dir := range dirs {
			if dir == resp.SocketDir {
				t.Fatalf("%q and %q share %s", id, other, dir)
			}
		}
		dirs[id] = resp.SocketDir
	}
	if got := dirs["a_b"]; filepath.Base(got) != "a_b" {
		t.Fatalf("a plain ID's directory is %s, want its own name", got)
	}
	for id, dir := range dirs {
		resp, err := dialContainer(t, &protocol.Message{SocketDir: dir}).Call(context.Background(), &protocol.Message{Type: protocol.TypeMemInfo})
		if err != nil || !resp.OK || resp.Total != int64(limits[id]) {
			t.Fatalf("%q's socket answers %+v %v, want its limit %d", id, resp, err, limits[id])
		}
	}
}

// TestClosedContainersLeaveNothing: every close removes the container's
// directory, and a re-register of the same ID gets a fresh one.
func TestClosedContainersLeaveNothing(t *testing.T) {
	d := startDaemon(t, mib(1000))
	ctl := dialControl(t, d)
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("c%02d", i)
		if resp := register(t, ctl, id, mib(10)); !resp.OK {
			t.Fatalf("register %s: %s", id, resp.Error)
		}
		if resp, err := ctl.Call(ctx, &protocol.Message{Type: protocol.TypeClose, Container: id}); err != nil || !resp.OK {
			t.Fatalf("close %s: %+v %v", id, resp, err)
		}
	}
	left, err := os.ReadDir(filepath.Join(d.cfg.BaseDir, "containers"))
	if err != nil || len(left) != 0 {
		t.Fatalf("containers/ holds %d entries after every close (%v)", len(left), err)
	}
	resp := register(t, ctl, "c00", mib(10))
	if !resp.OK {
		t.Fatalf("re-register: %s", resp.Error)
	}
	if _, err := os.Stat(filepath.Join(resp.SocketDir, protocol.ModuleFileName)); err != nil {
		t.Fatalf("re-registered container has no module: %v", err)
	}
	if r, err := dialContainer(t, resp).Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo}); err != nil || !r.OK {
		t.Fatalf("re-registered container's socket: %+v %v", r, err)
	}
}

func TestContainerDirSanitized(t *testing.T) {
	d := startDaemon(t, mib(1000))
	ctl := dialControl(t, d)
	resp := register(t, ctl, "../evil/../../name", mib(10))
	if !resp.OK {
		t.Fatalf("register: %s", resp.Error)
	}
	base := filepath.Clean(filepath.Join(resp.SocketDir, ".."))
	if filepath.Base(base) != "containers" {
		t.Fatalf("socket dir escaped the containers directory: %s", resp.SocketDir)
	}
}

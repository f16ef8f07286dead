package daemon

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"convgpu/internal/clock"
	"convgpu/internal/core"
	"convgpu/internal/cuda"
	"convgpu/internal/gpu"
	"convgpu/internal/ipc"
	"convgpu/internal/protocol"
	"convgpu/internal/wrapper"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSuspendDisconnectRedistributes is the satellite regression: a
// wrapper whose allocation is suspended dies (its connection drops);
// the parked ticket must be dropped from the scheduler queue instead of
// pinning it, and the container must be able to come back and allocate
// once memory frees.
func TestSuspendDisconnectRedistributes(t *testing.T) {
	d := startDaemon(t, mib(1000))
	ctl := dialControl(t, d)
	respA := register(t, ctl, "a", mib(700))
	respB := register(t, ctl, "b", mib(600)) // partial 300MiB grant
	cliA := dialContainer(t, respA)

	if resp, err := cliA.Call(context.Background(), &protocol.Message{
		Type: protocol.TypeAlloc, PID: 1, Size: int64(mib(600)),
	}); err != nil || resp.Decision != protocol.DecisionAccept {
		t.Fatalf("a alloc: %+v %v", resp, err)
	}

	// b's allocation cannot fit and suspends; then b's wrapper dies.
	cliB, err := ipc.Dial(filepath.Join(respB.SocketDir, ContainerSocketName))
	if err != nil {
		t.Fatal(err)
	}
	suspended := make(chan error, 1)
	go func() {
		_, err := cliB.Call(context.Background(), &protocol.Message{
			Type: protocol.TypeAlloc, PID: 2, Size: int64(mib(500)),
		})
		suspended <- err
	}()
	waitFor(t, "b suspended", func() bool {
		info, err := d.Core().Info("b")
		return err == nil && info.Pending == 1
	})
	cliB.Close()
	if err := <-suspended; !errors.Is(err, ipc.ErrClosed) {
		t.Fatalf("suspended call err = %v, want ErrClosed", err)
	}
	// The daemon notices the dead connection and drops the ticket.
	waitFor(t, "ticket dropped", func() bool {
		info, err := d.Core().Info("b")
		return err == nil && info.Pending == 0
	})

	// Memory frees (a leaves); a reconnected wrapper for b allocates —
	// nothing of the dead connection ghost-admits or blocks it.
	if resp, err := ctl.Call(context.Background(), &protocol.Message{
		Type: protocol.TypeClose, Container: "a",
	}); err != nil || !resp.OK {
		t.Fatalf("close a: %+v %v", resp, err)
	}
	cliB2 := dialContainer(t, respB)
	resp, err := cliB2.Call(context.Background(), &protocol.Message{
		Type: protocol.TypeAlloc, PID: 2, Size: int64(mib(500)),
	})
	if err != nil || resp.Decision != protocol.DecisionAccept {
		t.Fatalf("b retry after reconnect: %+v %v", resp, err)
	}
	if err := d.Core().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleControlSocketTakeover (satellite): a leftover socket file
// from a crashed daemon must not block startup — but a socket a live
// daemon answers on must.
func TestStaleControlSocketTakeover(t *testing.T) {
	base := filepath.Join(t.TempDir(), "cv")
	st := core.MustNew(core.Config{Capacity: mib(1000)})

	// Simulate the crash leftover: a file nothing listens on.
	if err := os.MkdirAll(base, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(base, ControlSocketName)
	ln, err := net.Listen("unix", stale)
	if err != nil {
		t.Fatal(err)
	}
	// Close the listener's fd without unlinking the socket file, the way
	// a SIGKILLed daemon leaves it.
	f, err := ln.(*net.UnixListener).File()
	if err != nil {
		t.Fatal(err)
	}
	ln.(*net.UnixListener).SetUnlinkOnClose(false)
	ln.Close()
	f.Close()
	if _, err := os.Stat(stale); err != nil {
		t.Fatalf("stale socket not in place: %v", err)
	}

	d, err := Start(Config{BaseDir: base, Core: st})
	if err != nil {
		t.Fatalf("takeover of stale socket failed: %v", err)
	}
	// The recovered daemon actually serves.
	ctl := dialControl(t, d)
	if resp := register(t, ctl, "c1", mib(100)); !resp.OK {
		t.Fatalf("register after takeover: %s", resp.Error)
	}

	// A second daemon must refuse to steal the live socket.
	if _, err := Start(Config{BaseDir: base, Core: st}); err == nil {
		t.Fatal("second daemon stole a live control socket")
	}
	d.Close()
}

// TestDaemonRestartRecoversSessions: a daemon restarting with a fresh
// core re-adopts persisted sessions; the wrapper's attach+restore
// replay rebuilds the accounting, and closed sessions stay gone.
func TestDaemonRestartRecoversSessions(t *testing.T) {
	base := filepath.Join(t.TempDir(), "cv")
	st1 := core.MustNew(core.Config{Capacity: mib(1000), ContextOverhead: 1})
	d1, err := Start(Config{BaseDir: base, Core: st1})
	if err != nil {
		t.Fatal(err)
	}
	ctl := dialControl(t, d1)
	respC1 := register(t, ctl, "c1", mib(400))
	register(t, ctl, "c2", mib(100))
	cli := dialContainer(t, respC1)
	for _, m := range []*protocol.Message{
		{Type: protocol.TypeAlloc, PID: 1, Size: int64(mib(100))},
		{Type: protocol.TypeConfirm, PID: 1, Size: int64(mib(100)), Addr: 0xA0},
	} {
		if resp, err := cli.Call(context.Background(), m); err != nil || !resp.OK {
			t.Fatalf("%s: %+v %v", m.Type, resp, err)
		}
	}
	// c2 closes cleanly; its session must not be resurrected.
	if resp, err := ctl.Call(context.Background(), &protocol.Message{
		Type: protocol.TypeClose, Container: "c2",
	}); err != nil || !resp.OK {
		t.Fatalf("close c2: %+v %v", resp, err)
	}
	d1.Close()

	// The daemon restarts with empty accounting (the usual crash case).
	st2 := core.MustNew(core.Config{Capacity: mib(1000), ContextOverhead: 1})
	d2, err := Start(Config{BaseDir: base, Core: st2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d2.Close() })
	info, err := st2.Info("c1")
	if err != nil {
		t.Fatalf("c1 not recovered: %v", err)
	}
	if info.Limit != mib(400) {
		t.Fatalf("recovered limit = %v", info.Limit)
	}
	if _, err := st2.Info("c2"); err == nil {
		t.Fatal("cleanly closed c2 was resurrected")
	}

	// The wrapper reconnects and replays: attach, then restore.
	cli2 := dialContainer(t, respC1)
	for _, m := range []*protocol.Message{
		{Type: protocol.TypeAttach, PID: 1},
		{Type: protocol.TypeRestore, PID: 1, Size: int64(mib(100)), Addr: 0xA0},
	} {
		if resp, err := cli2.Call(context.Background(), m); err != nil || !resp.OK {
			t.Fatalf("%s: %+v %v", m.Type, resp, err)
		}
	}
	info, _ = st2.Info("c1")
	if info.Used != mib(100)+1 {
		t.Fatalf("replayed used = %v, want 100MiB+overhead", info.Used)
	}
	// Re-registering the same container over the control socket is still
	// a duplicate error — idempotency lives in recovery, not register.
	if resp := register(t, ctl2(t, d2), "c1", mib(400)); resp.OK {
		t.Fatal("duplicate register after recovery succeeded")
	}
	if err := st2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func ctl2(t *testing.T, d *Daemon) *ipc.Client {
	t.Helper()
	return dialControl(t, d)
}

// TestLeaseReapsDeadContainer: a container that stops talking (SIGKILL,
// no close signal) is reaped after its lease expires, releasing its
// grant; a container that heartbeats stays alive.
func TestLeaseReapsDeadContainer(t *testing.T) {
	clk := clock.NewManual()
	st := core.MustNew(core.Config{Capacity: mib(1000), ContextOverhead: 1, Clock: clk})
	const lease = time.Minute
	d, err := Start(Config{
		BaseDir: filepath.Join(t.TempDir(), "cv"),
		Core:    st,
		Lease:   lease,
		Clock:   clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	ctl := dialControl(t, d)
	respDead := register(t, ctl, "dead", mib(400))
	respLive := register(t, ctl, "live", mib(300))
	cliDead := dialContainer(t, respDead)
	cliLive := dialContainer(t, respLive)

	if resp, err := cliDead.Call(context.Background(), &protocol.Message{
		Type: protocol.TypeAlloc, PID: 1, Size: int64(mib(200)),
	}); err != nil || resp.Decision != protocol.DecisionAccept {
		t.Fatalf("dead alloc: %+v %v", resp, err)
	}
	cliDead.Close() // SIGKILL: no procexit, no close signal

	// Drive the reap loop: each advance fires one lease check. The live
	// container heartbeats between checks and must survive; the dead one
	// passes the full lease silently and must be reaped.
	step := lease / 4
	for i := 0; i < 6; i++ {
		waitFor(t, "reap loop armed", func() bool { return clk.Pending() > 0 })
		clk.Advance(step)
		if resp, err := cliLive.Call(context.Background(), &protocol.Message{
			Type: protocol.TypeHeartbeat, PID: 2,
		}); err != nil || !resp.OK {
			t.Fatalf("heartbeat: %+v %v", resp, err)
		}
	}
	waitFor(t, "dead container reaped", func() bool {
		_, err := st.Info("dead")
		return err != nil
	})
	waitFor(t, "reaped container's directory removed", func() bool {
		_, err := os.Stat(respDead.SocketDir)
		return os.IsNotExist(err)
	})
	if _, err := st.Info("live"); err != nil {
		t.Fatalf("heartbeating container was reaped: %v", err)
	}
	// The dead container's grant (and its allocation) returned to the pool.
	if free := st.PoolFree(); free != mib(1000)-mib(300) {
		t.Fatalf("pool = %v after reap, want capacity minus live grant", free)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonKillRestartWrapperReconnects is the acceptance integration
// test: a wrapper module running over a Reconnector keeps working
// across a daemon restart — the in-flight failure is surfaced
// fail-closed, the reconnect happens within the backoff bound, the
// replayed session is not double-counted, and Σ grants stays within
// capacity.
func TestDaemonKillRestartWrapperReconnects(t *testing.T) {
	base := filepath.Join(t.TempDir(), "cv")
	st1 := core.MustNew(core.Config{Capacity: mib(1000), ContextOverhead: 1})
	d1, err := Start(Config{BaseDir: base, Core: st1})
	if err != nil {
		t.Fatal(err)
	}
	ctl := dialControl(t, d1)
	resp := register(t, ctl, "c1", mib(500))
	sock := filepath.Join(resp.SocketDir, ContainerSocketName)

	dev := gpu.New(gpu.K20m())
	rt := cuda.NewRuntime(dev, 7)
	var mod *wrapper.Module
	r := ipc.NewReconnector(ipc.ReconnectConfig{
		Network: "unix",
		Addr:    sock,
		Backoff: ipc.Backoff{Base: 2 * time.Millisecond, Max: 50 * time.Millisecond},
		OnReconnect: func(c *ipc.Client) error {
			return mod.ReplayState(context.Background(), c)
		},
		Seed: 42,
	})
	defer r.Close()
	mod = wrapper.New(rt, r, 7)

	if _, err := mod.Malloc(mib(100)); err != nil {
		t.Fatal(err)
	}
	used1, _ := st1.Info("c1")
	devBase := dev.Used() // 100MiB plus the simulated CUDA context

	d1.Close() // the daemon dies with the wrapper's session live

	// Calls against the dead daemon fail closed — the CUDA OOM error,
	// not a silent local grant.
	if _, err := mod.Malloc(mib(50)); !errors.Is(err, cuda.ErrorMemoryAllocation) {
		t.Fatalf("alloc against dead daemon: %v, want cudaErrorMemoryAllocation", err)
	}

	// Restart with a fresh core; the wrapper must reconnect, replay, and
	// serve new allocations within the backoff bound.
	st2 := core.MustNew(core.Config{Capacity: mib(1000), ContextOverhead: 1})
	d2, err := Start(Config{BaseDir: base, Core: st2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d2.Close() })

	start := time.Now()
	var allocErr error
	for time.Since(start) < 5*time.Second {
		if _, allocErr = mod.Malloc(mib(50)); allocErr == nil {
			break
		}
	}
	if allocErr != nil {
		t.Fatalf("wrapper never recovered: %v", allocErr)
	}
	info, err := st2.Info("c1")
	if err != nil {
		t.Fatal(err)
	}
	// Replayed 100MiB + new 50MiB + one context overhead — the replay
	// did not double-count the old allocation or the process overhead.
	if want := used1.Used + mib(50); info.Used != want {
		t.Fatalf("used after restart = %v, want %v", info.Used, want)
	}
	if info.Grant > mib(500) || info.Grant > mib(1000) {
		t.Fatalf("grant after restart = %v exceeds bounds", info.Grant)
	}
	if err := st2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The device truly holds both allocations — and only them: the
	// failed call against the dead daemon allocated nothing.
	if got := dev.Used(); got != devBase+mib(50) {
		t.Fatalf("device used = %v, want %v", got, devBase+mib(50))
	}
}

package daemon

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"convgpu/internal/clock"
	"convgpu/internal/core"
	"convgpu/internal/ipc"
	"convgpu/internal/leak"
	"convgpu/internal/protocol"
)

// callWithin calls msg on cli in the background and hands back the channel
// its response (nil on a transport error) arrives on.
func callWithin(cli *ipc.Client, msg *protocol.Message, within time.Duration) <-chan *protocol.Message {
	done := make(chan *protocol.Message, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), within)
		defer cancel()
		resp, err := cli.Call(ctx, msg)
		if err != nil {
			resp = nil
		}
		done <- resp
	}()
	return done
}

// TestStuckCloseLeavesOtherRegistersAlone: a container that parks a flood
// of allocations and then reads nothing hangs its own close in the
// release's socket write; a registration of an unrelated container, on
// another control connection, still goes through.
func TestStuckCloseLeavesOtherRegistersAlone(t *testing.T) {
	d := startDaemon(t, mib(1000))
	ctl := dialControl(t, d)
	if resp := register(t, ctl, "a", mib(900)); !resp.OK {
		t.Fatalf("register a: %s", resp.Error)
	}
	respB := register(t, ctl, "b", mib(500)) // a partial grant behind a
	if !respB.OK {
		t.Fatalf("register b: %s", respB.Error)
	}
	raw, err := net.Dial("unix", filepath.Join(respB.SocketDir, protocol.SocketFileName))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	const parked = 20000
	go func() {
		for i := 1; i <= parked; i++ {
			line := fmt.Sprintf(`{"type":"alloc","seq":%d,"pid":1,"size":%d}`+"\n", i, mib(200))
			if _, err := raw.Write([]byte(line)); err != nil {
				return
			}
		}
	}()
	for deadline := time.Now().Add(30 * time.Second); parkedCount(d) != parked; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of b's allocations parked, want %d", parkedCount(d), parked)
		}
	}

	closing := callWithin(ctl, &protocol.Message{Type: protocol.TypeClose, Container: "b"}, time.Minute)
	waitFor(t, "the core to let b go", func() bool {
		_, err := d.Core().Info("b")
		return err != nil
	})
	select {
	case resp := <-closing:
		t.Fatalf("b's close returned (%+v) while b reads nothing; nothing here blocks it", resp)
	case <-time.After(50 * time.Millisecond):
	}

	other := dialControl(t, d)
	select {
	case resp := <-callWithin(other, &protocol.Message{Type: protocol.TypeRegister, Container: "c", Limit: int64(mib(50))}, 3*time.Second):
		if resp == nil || !resp.OK {
			t.Errorf("register c while b's close is stuck = %+v, want OK", resp)
		}
	case <-time.After(4 * time.Second):
		t.Error("register c did not return while b's close is stuck")
	}

	raw.Close() // b's writes now fail, and its close ends
	select {
	case <-closing:
	case <-time.After(10 * time.Second):
		t.Fatal("b's close still stuck after b's connection closed")
	}
}

// placementGate is a core.Scheduler that holds the first Placement call,
// its answer already read, until the test lets it go: for a
// registration, that is after the core admitted the container and
// placed it, and before the daemon has served it.
type placementGate struct {
	*core.State
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (g *placementGate) Placement(id core.ContainerID) (int, error) {
	device, err := g.State.Placement(id)
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return device, err
}

// TestCloseDuringRegistrationAgrees: a close of an ID whose registration
// is still on its way leaves the core, the log and containers/ agreeing
// on the ID, open in all three or closed in all three.
func TestCloseDuringRegistrationAgrees(t *testing.T) {
	leak.Check(t)
	gate := &placementGate{
		State:   core.MustNew(core.Config{Capacity: mib(1000), ContextOverhead: 1}),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	d, err := Start(Config{BaseDir: filepath.Join(t.TempDir(), "cv"), Core: gate})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	registering := callWithin(dialControl(t, d), &protocol.Message{Type: protocol.TypeRegister, Container: "A", Limit: int64(mib(100))}, 10*time.Second)
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("registration never reached Placement")
	}
	closing := callWithin(dialControl(t, d), &protocol.Message{Type: protocol.TypeClose, Container: "A"}, 10*time.Second)
	select {
	case <-closing: // it did not wait for the registration
		closing = nil
	case <-time.After(200 * time.Millisecond):
	}
	close(gate.release)
	for _, ch := range []<-chan *protocol.Message{registering, closing} {
		if ch == nil {
			continue
		}
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatal("register or close of A never returned")
		}
	}

	_, err = d.Core().Info("A")
	inCore := err == nil
	inLog := false
	for _, s := range d.wal.Sessions() {
		inLog = inLog || s.Container == "A"
	}
	_, err = os.Stat(d.containerDir("A"))
	onDisk := err == nil
	if inCore != inLog || inCore != onDisk {
		t.Fatalf("A open in core %v, in the log %v, on disk %v: they must agree", inCore, inLog, onDisk)
	}
}

// TestStragglerRenewsNoClosedLease: a heartbeat handled after its
// container closed renews nothing the reaper reads, so the closed
// container is not expired again and again, and the lease table stays
// empty.
func TestStragglerRenewsNoClosedLease(t *testing.T) {
	leak.Check(t)
	clk := clock.NewManual()
	const lease = time.Minute
	d, err := Start(Config{
		BaseDir: filepath.Join(t.TempDir(), "cv"),
		Core:    core.MustNew(core.Config{Capacity: mib(1000), ContextOverhead: 1, Clock: clk}),
		Lease:   lease,
		Clock:   clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctl := dialControl(t, d)
	if resp := register(t, ctl, "gone", mib(100)); !resp.OK {
		t.Fatalf("register: %s", resp.Error)
	}
	straggler := d.Caller("gone") // a handler of the life about to end
	if resp := callControl(t, ctl, &protocol.Message{Type: protocol.TypeClose, Container: "gone"}); !resp.OK {
		t.Fatalf("close: %s", resp.Error)
	}
	if _, err := straggler.Call(context.Background(), &protocol.Message{Type: protocol.TypeHeartbeat, PID: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		waitFor(t, "reap loop armed", func() bool { return clk.Pending() > 0 })
		clk.Advance(lease / 4)
	}
	waitFor(t, "last reap pass done", func() bool { return clk.Pending() > 0 })
	if got := d.Obs().LeaseExpiries.Value(); got != 0 {
		t.Errorf("lease expiries after a closed container's straggler = %d, want 0", got)
	}
	d.mu.Lock()
	left := len(d.live)
	d.mu.Unlock()
	if left != 0 {
		t.Errorf("lease table holds %d entries after the only container closed, want 0", left)
	}
}

// infoGate is a core.Scheduler that, once armed, holds the first Info
// call, its answer already read, until the test lets it go: for the lease
// reaper, that is after it found a life expired and before its close has
// taken the ID's turn. Later calls pass.
type infoGate struct {
	*core.State
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *infoGate) Info(id core.ContainerID) (core.ContainerInfo, error) {
	info, err := g.State.Info(id)
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	return info, err
}

// TestReaperSparesAFreshLife: the reaper closes the life whose lease it
// found out, not a later life of the same ID that a plugin close and a
// re-registration put in its place while the reaper was on its way.
func TestReaperSparesAFreshLife(t *testing.T) {
	leak.Check(t)
	clk := clock.NewManual()
	const lease = time.Minute
	gate := &infoGate{
		State:   core.MustNew(core.Config{Capacity: mib(1000), ContextOverhead: 1, Clock: clk}),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	d, err := Start(Config{BaseDir: filepath.Join(t.TempDir(), "cv"), Core: gate, Lease: lease, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	release := sync.OnceFunc(func() { close(gate.release) })
	defer release() // before Close, which waits for the reaper
	ctl := dialControl(t, d)
	if resp := register(t, ctl, "A", mib(100)); !resp.OK {
		t.Fatalf("register A: %s", resp.Error)
	}
	gate.armed.Store(true)
	// Four quarter-leases leave A's lease exactly out; the fifth tick's
	// pass finds it expired and stops in the Info its close begins with.
	for i := 0; i < 5; i++ {
		waitFor(t, "reap loop armed", func() bool { return clk.Pending() > 0 })
		clk.Advance(lease / 4)
	}
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the reaper never began closing A")
	}
	if resp := callControl(t, ctl, &protocol.Message{Type: protocol.TypeClose, Container: "A"}); !resp.OK {
		t.Fatalf("close A while the reaper is held: %s", resp.Error)
	}
	if resp := register(t, ctl, "A", mib(100)); !resp.OK {
		t.Fatalf("register A again: %s", resp.Error)
	}
	release()
	waitFor(t, "the reaper's pass done", func() bool { return clk.Pending() > 0 })

	_, err = d.Core().Info("A")
	inCore := err == nil
	inLog := false
	for _, s := range d.wal.Sessions() {
		inLog = inLog || s.Container == "A"
	}
	_, err = os.Stat(d.containerDir("A"))
	onDisk := err == nil
	if !inCore || !inLog || !onDisk {
		t.Errorf("fresh A open in core %v, in the log %v, on disk %v; want open in all three", inCore, inLog, onDisk)
	}
	if got := d.Obs().LeaseExpiries.Value(); got != 0 {
		t.Errorf("lease expiries = %d, want 0: the expired life was closed by the plugin", got)
	}
}

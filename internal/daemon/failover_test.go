package daemon

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"convgpu/internal/cluster"
	"convgpu/internal/core"
	"convgpu/internal/errs"
	"convgpu/internal/ipc"
	"convgpu/internal/protocol"
	"convgpu/internal/wal"
)

func startClusterDaemon(t *testing.T) (*Daemon, *cluster.Cluster) {
	t.Helper()
	clus, err := cluster.New(cluster.Config{
		Nodes: 2, GPUsPerNode: 1, CapacityPerGPU: mib(500), Device: core.Config{ContextOverhead: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Start(Config{BaseDir: filepath.Join(t.TempDir(), "cv"), Core: clus})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, clus
}

func callControl(t *testing.T, ctl *ipc.Client, msg *protocol.Message) *protocol.Message {
	t.Helper()
	resp, err := ctl.Call(context.Background(), msg)
	if err != nil {
		t.Fatalf("%s: %v", msg.Type, err)
	}
	return resp
}

// TestMembershipVerbsNeedClusterBackend: on a single core.State the
// node verbs refuse with the membership sentinel the admin plane maps
// to 404 / failed operations.
func TestMembershipVerbsNeedClusterBackend(t *testing.T) {
	d := startDaemon(t, mib(1000))
	if _, err := d.NodeStatuses(); !errors.Is(err, errNoMembership) {
		t.Errorf("NodeStatuses error = %v", err)
	}
	if err := d.DrainNode(0); !errors.Is(err, errNoMembership) {
		t.Errorf("DrainNode error = %v", err)
	}
	if err := d.ReviveNode(0); !errors.Is(err, errNoMembership) {
		t.Errorf("ReviveNode error = %v", err)
	}
	if _, err := d.FailNode(0); !errors.Is(err, errNoMembership) {
		t.Errorf("FailNode error = %v", err)
	}
}

// parkedCount reports how many responders the daemon holds parked.
func parkedCount(d *Daemon) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.parked)
}

func waitParked(t *testing.T, d *Daemon, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for parkedCount(d) != n {
		if time.Now().After(deadline) {
			t.Fatalf("parked responders = %d, want %d", parkedCount(d), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFailoverMigratesParkedResponder drives the daemon's failover hook
// through the wire: a container with a parked allocation loses its node,
// the responder is re-keyed onto the survivor's fresh ticket, and when
// capacity frees up there the original caller — still blocked in its
// alloc round trip — receives an accept, never an error, a hang, or a
// silent drop. The migrated container's session follows it in the log.
func TestFailoverMigratesParkedResponder(t *testing.T) {
	d, clus := startClusterDaemon(t)
	ctl := dialControl(t, d)

	// Spread places c0 → node 0, c1 → node 1, c2 → node 0 (50 MiB grant).
	for _, id := range []string{"c0", "c1", "c2"} {
		if resp := register(t, ctl, id, mib(450)); !resp.OK {
			t.Fatalf("register %s: %s", id, resp.Error)
		}
	}
	c2 := dialContainer(t, registerDirOf(t, d, "c2"))
	type allocResult struct {
		resp *protocol.Message
		err  error
	}
	done := make(chan allocResult, 1)
	go func() {
		resp, err := c2.Call(context.Background(), &protocol.Message{
			Type: protocol.TypeAlloc, Container: "c2", PID: 1, Size: int64(mib(200)),
		})
		done <- allocResult{resp, err}
	}()
	waitParked(t, d, 1)

	if _, err := clus.FailNode(0); err != nil {
		t.Fatal(err)
	}
	// Still parked (node 1 is full): re-keyed, not answered, not lost.
	waitParked(t, d, 1)
	select {
	case r := <-done:
		t.Fatalf("parked alloc answered prematurely: %+v %v", r.resp, r.err)
	default:
	}
	if got := d.Obs().Failovers.Value(); got != 1 {
		t.Fatalf("failovers counter = %d, want 1", got)
	}
	if got := d.Obs().TicketsMigrated.Value(); got != 1 {
		t.Fatalf("migrated-tickets counter = %d, want 1", got)
	}

	// The migrated containers' sessions survived and still recover: the
	// log folds each to its limit and the device it now lives on.
	folded := make(map[core.ContainerID]wal.Session)
	for _, s := range d.wal.Sessions() {
		folded[core.ContainerID(s.Container)] = s
	}
	for _, id := range []core.ContainerID{"c0", "c2"} {
		s, ok := folded[id]
		if !ok {
			t.Fatalf("session %s not in the log after migration: %+v", id, folded)
		}
		if s.Limit != int64(mib(450)) {
			t.Fatalf("session %s limit = %v, want 450 MiB", id, s.Limit)
		}
		if device, err := d.Core().Placement(id); err != nil || s.Device != device {
			t.Fatalf("session %s logged on device %d, placed on %d (%v)", id, s.Device, device, err)
		}
	}

	// Free the survivor's capacity: closing c1 lets redistribution admit
	// the migrated ticket, answering the original caller.
	if resp := callControl(t, ctl, &protocol.Message{Type: protocol.TypeClose, Container: "c1"}); !resp.OK {
		t.Fatalf("close c1: %s", resp.Error)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("migrated alloc failed: %v", r.err)
		}
		if !r.resp.OK || r.resp.Decision != protocol.DecisionAccept {
			t.Fatalf("migrated alloc = %+v, want accept", r.resp)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("migrated alloc never answered after capacity freed")
	}
	if n := parkedCount(d); n != 0 {
		t.Fatalf("parked responders after admit = %d, want 0", n)
	}
}

// TestFailoverEvictsWithNodeDownCode pins the fail-closed half: with no
// surviving capacity the parked caller gets an immediate, machine-
// readable node_down error (errors.Is-able as ErrNodeDown across the
// wire), the evicted sessions are discarded, each evicted container's
// trace ends with an evict record (the dead node's scheduler emitted no
// close) that also ends its causal counter, and new registrations fail
// closed with the unavailable code until a node is revived.
func TestFailoverEvictsWithNodeDownCode(t *testing.T) {
	d, clus := startClusterDaemon(t)
	ctl := dialControl(t, d)

	// Drain node 1 up front: everything lands on node 0 and the later
	// failover has no migration target.
	if err := d.DrainNode(1); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range []string{"c0", "c2"} {
		if resp := register(t, ctl, id, mib(450)); !resp.OK {
			t.Fatalf("register %s: %s", id, resp.Error)
		}
	}
	c2 := dialContainer(t, registerDirOf(t, d, "c2"))
	done := make(chan *protocol.Message, 1)
	go func() {
		resp, err := c2.Call(context.Background(), &protocol.Message{
			Type: protocol.TypeAlloc, Container: "c2", PID: 1, Size: int64(mib(200)),
		})
		if err != nil {
			done <- nil
			return
		}
		done <- resp
	}()
	waitParked(t, d, 1)

	if _, err := clus.FailNode(0); err != nil {
		t.Fatal(err)
	}
	select {
	case resp := <-done:
		if resp == nil {
			t.Fatal("evicted alloc failed at transport level, want a coded response")
		}
		if resp.OK || resp.Code != errs.CodeNodeDown {
			t.Fatalf("evicted alloc = %+v, want node_down error", resp)
		}
		if !errors.Is(errs.FromCode(resp.Code), errs.ErrNodeDown) {
			t.Fatalf("code %q does not map to ErrNodeDown", resp.Code)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("evicted alloc never answered")
	}
	if got := d.Obs().TicketsEvicted.Value(); got != 1 {
		t.Fatalf("evicted-tickets counter = %d, want 1", got)
	}
	for _, id := range []core.ContainerID{"c0", "c2"} {
		d.mu.Lock()
		_, served := d.live[id]
		d.mu.Unlock()
		if served {
			t.Fatalf("evicted container %s is still served", id)
		}
		if _, err := os.Stat(d.containerDir(id)); !os.IsNotExist(err) {
			t.Fatalf("evicted container %s's directory is still there (%v)", id, err)
		}
		events := d.Obs().Tracer().Events(string(id))
		if last := events[len(events)-1]; last.Kind != "evict" {
			t.Fatalf("evicted container %s: last trace event is %q, want evict", id, last.Kind)
		}
	}

	// Node 0 down, node 1 draining: admission fails closed with the
	// machine-readable unavailable code.
	resp := register(t, ctl, "c9", mib(100))
	if resp.OK {
		t.Fatal("register with no eligible node succeeded")
	}
	if !errors.Is(errs.FromCode(resp.Code), errs.ErrDaemonUnavailable) {
		t.Fatalf("fail-closed register code %q does not map to ErrDaemonUnavailable", resp.Code)
	}

	// Revive the drained node: service resumes.
	if err := d.ReviveNode(1); err != nil {
		t.Fatalf("revive: %v", err)
	}
	if r := register(t, ctl, "c9", mib(100)); !r.OK {
		t.Fatalf("register after revive: %s", r.Error)
	}
	// An evicted ID that registers again is a new lifetime: its causal
	// sequence restarts at 1.
	if r := register(t, ctl, "c0", mib(100)); !r.OK {
		t.Fatalf("re-register evicted c0: %s", r.Error)
	}
	events := d.Obs().Tracer().Events("c0")
	if last := events[len(events)-1]; last.Kind != "register" || last.CSeq != 1 {
		t.Fatalf("re-registered c0: last trace event %+v, want a register with cseq 1", last)
	}
}

// registerDirOf rebuilds the response a dialContainer caller needs
// (registration responses are pooled and may have been released).
func registerDirOf(t *testing.T, d *Daemon, id string) *protocol.Message {
	t.Helper()
	return &protocol.Message{SocketDir: d.containerDir(core.ContainerID(id))}
}

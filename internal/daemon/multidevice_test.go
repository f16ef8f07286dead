// Multi-device daemon behavior: device assignments on the wire, in the
// dump document, and — the part that must survive a crash — pinned
// through session recovery so a restarted daemon's placement policy
// cannot move a container away from the device its CUDA context lives
// on.

package daemon

import (
	"context"
	"path/filepath"
	"testing"

	"convgpu/internal/core"
	"convgpu/internal/multigpu"
	"convgpu/internal/protocol"
)

func newMultiDevice(t *testing.T, devices int) *multigpu.State {
	t.Helper()
	st, err := multigpu.New(multigpu.Config{
		Devices:           devices,
		CapacityPerDevice: mib(1000),
		Policy:            &multigpu.RoundRobin{},
		Device:            core.Config{ContextOverhead: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRegisterReportsDevice: a multi-device daemon's register response
// announces the assigned device, and the attach response repeats it for
// reconnecting wrappers.
func TestRegisterReportsDevice(t *testing.T) {
	st := newMultiDevice(t, 2)
	d, err := Start(Config{BaseDir: filepath.Join(t.TempDir(), "cv"), Core: st})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	ctl := dialControl(t, d)

	respA := register(t, ctl, "a", mib(400))
	respB := register(t, ctl, "b", mib(400))
	if respA.Device != 0 || respB.Device != 1 {
		t.Fatalf("register devices = %d, %d; want round-robin 0, 1", respA.Device, respB.Device)
	}
	cli := dialContainer(t, respB)
	att, err := cli.Call(context.Background(), &protocol.Message{Type: protocol.TypeAttach, PID: 1})
	if err != nil || !att.OK {
		t.Fatalf("attach: %+v %v", att, err)
	}
	if att.Device != 1 {
		t.Fatalf("attach device = %d, want 1", att.Device)
	}
}

// TestMultiDeviceRestartPinsPlacement: restart recovery must restore
// each container to the device recorded in its register record, not
// wherever the fresh daemon's placement policy would put it. The
// schedule makes the distinction observable: a, b, c, d round-robin
// onto devices 0,1,0,1; b's session is removed before the restart, so a
// fresh round-robin pass over the three survivors would assign some of
// them different devices — pinning must win.
func TestMultiDeviceRestartPinsPlacement(t *testing.T) {
	base := filepath.Join(t.TempDir(), "cv")
	st1 := newMultiDevice(t, 2)
	d1, err := Start(Config{BaseDir: base, Core: st1})
	if err != nil {
		t.Fatal(err)
	}
	ctl := dialControl(t, d1)
	want := map[string]int{"a": 0, "b": 1, "c": 0, "d": 1}
	for _, id := range []string{"a", "b", "c", "d"} {
		resp := register(t, ctl, id, mib(300))
		if resp.Device != want[id] {
			t.Fatalf("register %s device = %d, want %d", id, resp.Device, want[id])
		}
	}
	// b closes cleanly; its session must not be resurrected.
	if resp, err := ctl.Call(context.Background(), &protocol.Message{
		Type: protocol.TypeClose, Container: "b",
	}); err != nil || !resp.OK {
		t.Fatalf("close b: %+v %v", resp, err)
	}
	d1.Close()

	st2 := newMultiDevice(t, 2)
	d2, err := Start(Config{BaseDir: base, Core: st2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d2.Close() })
	if _, err := st2.Info("b"); err == nil {
		t.Fatal("cleanly closed b was resurrected")
	}
	for _, id := range []string{"a", "c", "d"} {
		dev, err := st2.Placement(core.ContainerID(id))
		if err != nil {
			t.Fatalf("%s not recovered: %v", id, err)
		}
		if dev != want[id] {
			t.Fatalf("recovered %s on device %d, want pinned device %d", id, dev, want[id])
		}
	}
	if err := st2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryDropsUnservableDevice: a session recorded on a device the
// restarted daemon no longer serves (fewer GPUs after the restart) is
// invalidated — evicted into the log, container not registered — rather
// than silently re-placed on a device its CUDA context does not live on;
// a later restart with the device back does not resurrect it.
func TestRecoveryDropsUnservableDevice(t *testing.T) {
	base := filepath.Join(t.TempDir(), "cv")
	st1 := newMultiDevice(t, 2)
	d1, err := Start(Config{BaseDir: base, Core: st1})
	if err != nil {
		t.Fatal(err)
	}
	ctl := dialControl(t, d1)
	register(t, ctl, "a", mib(300)) // device 0
	register(t, ctl, "b", mib(300)) // device 1
	d1.Close()

	// Restart serving a single device: b's recorded device 1 is gone.
	st2 := core.MustNew(core.Config{Capacity: mib(1000), ContextOverhead: 1})
	d2, err := Start(Config{BaseDir: base, Core: st2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d2.Close() })
	if _, err := st2.Info("a"); err != nil {
		t.Fatalf("a (device 0) not recovered: %v", err)
	}
	if _, err := st2.Info("b"); err == nil {
		t.Fatal("b recovered onto a device the daemon does not serve")
	}
	if err := st2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	d2.Close()

	st3 := newMultiDevice(t, 2)
	d3, err := Start(Config{BaseDir: base, Core: st3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d3.Close() })
	if _, err := st3.Info("a"); err != nil {
		t.Fatalf("a lost by the second restart: %v", err)
	}
	if _, err := st3.Info("b"); err == nil {
		t.Fatal("evicted b resurrected once its device was back")
	}
}

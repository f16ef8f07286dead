package wrapper

import (
	"testing"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/cuda"
	"convgpu/internal/gpu"
	"convgpu/internal/inproc"
)

// driverRig wires a DriverModule to a real core via the in-process
// transport, one container with one process.
type driverRig struct {
	dev *gpu.Device
	st  *core.State
	hub *inproc.Hub
	mod *DriverModule
	id  core.ContainerID
}

func newDriverRig(t *testing.T, limit bytesize.Size) *driverRig {
	t.Helper()
	dev := gpu.New(gpu.K20m())
	st := core.MustNew(core.Config{Capacity: 5 * bytesize.GiB})
	hub := inproc.NewHub(st)
	id := core.ContainerID("drv")
	if _, err := hub.Register(id, limit); err != nil {
		t.Fatal(err)
	}
	mod := NewDriver(cuda.NewDriver(dev, 55), hub.Caller(id), 55)
	if err := mod.Init(0); err != nil {
		t.Fatal(err)
	}
	if err := mod.CtxCreate(0); err != nil {
		t.Fatal(err)
	}
	return &driverRig{dev: dev, st: st, hub: hub, mod: mod, id: id}
}

func TestDriverMemAllocTracked(t *testing.T) {
	r := newDriverRig(t, mib(1024))
	ptr, err := r.mod.MemAlloc(mib(100))
	if err != nil {
		t.Fatal(err)
	}
	if size, pid, ok := r.dev.Lookup(uint64(ptr)); !ok || size != mib(100) || pid != 55 {
		t.Fatalf("device Lookup = (%v,%v,%v)", size, pid, ok)
	}
	info, err := r.st.Info(r.id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Used != mib(100)+core.DefaultContextOverhead {
		t.Fatalf("core used = %v", info.Used)
	}
}

func TestDriverMemAllocRejected(t *testing.T) {
	r := newDriverRig(t, mib(128))
	if _, err := r.mod.MemAlloc(mib(128)); err != cuda.CUDAErrorOutOfMemory {
		t.Fatalf("over-limit cuMemAlloc: %v", err)
	}
	// Only the context reservation touched the device.
	if used := r.dev.Used(); used != core.DefaultContextOverhead {
		t.Fatalf("device used = %v", used)
	}
	if _, err := r.mod.MemAlloc(0); err != cuda.CUDAErrorInvalidValue {
		t.Fatalf("MemAlloc(0): %v", err)
	}
}

func TestDriverMemFreeReports(t *testing.T) {
	r := newDriverRig(t, mib(1024))
	ptr, err := r.mod.MemAlloc(mib(64))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.mod.MemFree(ptr); err != nil { // applied before it returns: the rig's transport is in-process
		t.Fatal(err)
	}
	info, _ := r.st.Info(r.id)
	if info.Used != core.DefaultContextOverhead {
		t.Fatalf("core used after free = %v", info.Used)
	}
}

func TestDriverVirtualizedViews(t *testing.T) {
	r := newDriverRig(t, mib(1024))
	free, total, err := r.mod.MemGetInfo()
	if err != nil {
		t.Fatal(err)
	}
	if total != mib(1024) || free != mib(1024) {
		t.Fatalf("MemGetInfo = (%v,%v), want 1GiB container view", free, total)
	}
	// cuDeviceTotalMem reports the limit too, not the 5 GiB device.
	dt, err := r.mod.DeviceTotalMem(0)
	if err != nil || dt != mib(1024) {
		t.Fatalf("DeviceTotalMem = (%v,%v)", dt, err)
	}
}

func TestDriverCtxDestroyReportsExit(t *testing.T) {
	r := newDriverRig(t, mib(1024))
	if _, err := r.mod.MemAlloc(mib(200)); err != nil {
		t.Fatal(err) // leaked
	}
	if err := r.mod.CtxDestroy(); err != nil {
		t.Fatal(err)
	}
	if used := r.dev.Used(); used != 0 {
		t.Fatalf("device used after ctx destroy = %v", used)
	}
	info, _ := r.st.Info(r.id)
	if info.Used != 0 {
		t.Fatalf("core used after ctx destroy = %v", info.Used)
	}
}

func TestDriverPassThroughOps(t *testing.T) {
	r := newDriverRig(t, mib(1024))
	ptr, err := r.mod.MemAlloc(mib(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.mod.MemcpyHtoD(ptr, mib(8)); err != nil {
		t.Fatal(err)
	}
	if err := r.mod.LaunchKernel(cuda.Kernel{Name: "k", Duration: 0}, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.mod.CtxSynchronize(); err != nil {
		t.Fatal(err)
	}
	if err := r.mod.MemcpyDtoH(ptr, mib(8)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.mod.DeviceGet(0); err != nil {
		t.Fatal(err)
	}
}

func TestDriverSuspensionAcrossAPIs(t *testing.T) {
	// A Driver-API container and a Runtime-API container share one
	// scheduler: the paper's point that both interfaces are covered by
	// the same management.
	dev := gpu.New(gpu.K20m())
	st := core.MustNew(core.Config{Capacity: mib(1000), ContextOverhead: 1})
	hub := inproc.NewHub(st)
	if _, err := hub.Register("rt", mib(700)); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Register("drv", mib(600)); err != nil {
		t.Fatal(err)
	}
	rtMod := New(cuda.NewRuntime(dev, 1), hub.Caller("rt"), 1)
	drvMod := NewDriver(cuda.NewDriver(dev, 2), hub.Caller("drv"), 2)
	drvMod.Init(0)
	drvMod.CtxCreate(0)

	if _, err := rtMod.Malloc(mib(600)); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := drvMod.MemAlloc(mib(500)) // grant 300: suspends
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("driver alloc returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := hub.Close("rt"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("resumed cuMemAlloc failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cuMemAlloc never resumed")
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

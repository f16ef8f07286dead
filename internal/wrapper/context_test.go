package wrapper

import (
	"context"
	"strings"
	"testing"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/cuda"
	"convgpu/internal/gpu"
)

// TestWithContextUnblocksSuspendedMalloc: cancelling the process context
// (docker stop / SIGKILL) releases a Malloc blocked in suspension.
func TestWithContextUnblocksSuspendedMalloc(t *testing.T) {
	dev := gpu.New(gpu.K20m())
	st := core.MustNew(core.Config{Capacity: mib(1000), ContextOverhead: 1})
	s := startSched(t, st)
	s.register("big", mib(700))
	s.register("small", mib(600))
	modBig := New(cuda.NewRuntime(dev, 1), s.Caller("big"), 1)
	if _, err := modBig.Malloc(mib(600)); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	modSmall := New(cuda.NewRuntime(dev, 2), s.Caller("small"), 2, WithContext(ctx))
	got := make(chan error, 1)
	go func() {
		_, err := modSmall.Malloc(mib(500))
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("suspended Malloc returned early: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-got:
		if err == nil {
			t.Fatal("cancelled Malloc succeeded")
		}
		if !strings.Contains(err.Error(), "terminated while allocation was suspended") {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled Malloc never unblocked")
	}
	// Nothing of small's was charged to the device: only big's 600 MiB
	// allocation plus its 66 MiB device context exist.
	if used := dev.Used(); used != 600*bytesize.MiB+66*bytesize.MiB {
		t.Fatalf("device used = %v, want big's 666MiB only", used)
	}
	// The core still has the pending ticket; process exit cleans it up.
	if err := modSmall.UnregisterFatBinary(); err != nil {
		t.Fatal(err)
	}
	info, err := st.Info("small")
	if err != nil {
		t.Fatal(err)
	}
	if info.Pending != 0 || info.Used != 0 {
		t.Fatalf("small after exit = %+v", info)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWithContextPreCancelled: a dead process's allocations fail
// immediately without charging anything.
func TestWithContextPreCancelled(t *testing.T) {
	dev := gpu.New(gpu.K20m())
	st := core.MustNew(core.Config{Capacity: mib(1000), ContextOverhead: 1})
	s := startSched(t, st)
	s.register("c", mib(500))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mod := New(cuda.NewRuntime(dev, 3), s.Caller("c"), 3, WithContext(ctx))
	if _, err := mod.Malloc(mib(100)); err == nil {
		t.Fatal("Malloc with dead context succeeded")
	}
	info, _ := st.Info("c")
	if info.Used != 0 {
		t.Fatalf("used = %v after dead-context Malloc", info.Used)
	}
}

package wrapper

import (
	"testing"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/cuda"
	"convgpu/internal/gpu"
)

func TestStreamPassThrough(t *testing.T) {
	r := newRig(t, mib(1024))
	s, err := r.mod.StreamCreate()
	if err != nil {
		t.Fatal(err)
	}
	ptr, err := r.mod.Malloc(mib(32))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.mod.MemcpyAsync(ptr, mib(32), cuda.MemcpyHostToDevice, s); err != nil {
		t.Fatal(err)
	}
	if err := r.mod.LaunchKernel(cuda.Kernel{Name: "k", Duration: 0}, s); err != nil {
		t.Fatal(err)
	}
	start, err := r.mod.EventCreate()
	if err != nil {
		t.Fatal(err)
	}
	end, err := r.mod.EventCreate()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.mod.EventRecord(start, s); err != nil {
		t.Fatal(err)
	}
	if err := r.mod.EventRecord(end, s); err != nil {
		t.Fatal(err)
	}
	if err := r.mod.StreamSynchronize(s); err != nil {
		t.Fatal(err)
	}
	if err := r.mod.EventSynchronize(end); err != nil {
		t.Fatal(err)
	}
	if _, err := r.mod.EventElapsed(start, end); err != nil {
		t.Fatal(err)
	}
	if err := r.mod.StreamDestroy(s); err != nil {
		t.Fatal(err)
	}
	// None of the stream traffic reached the scheduler: only the one
	// Malloc did (alloc + confirm).
	if n := len(r.spy.sent); n != 2 {
		t.Fatalf("scheduler saw %d messages, want 2 (alloc+confirm only)", n)
	}
}

// nonStreamAPI is a cuda.API without the stream surface.
type nonStreamAPI struct{ cuda.API }

func TestStreamsOnNonStreamInner(t *testing.T) {
	dev := gpu.New(gpu.K20m())
	st := core.MustNew(core.Config{Capacity: 5 * bytesize.GiB})
	s := startSched(t, st)
	s.register("x", bytesize.GiB)
	mod := New(nonStreamAPI{cuda.NewRuntime(dev, 1)}, s.Caller("x"), 1)
	if _, err := mod.StreamCreate(); err != cuda.ErrorInvalidValue {
		t.Fatalf("StreamCreate on non-stream inner: %v", err)
	}
	if err := mod.StreamDestroy(1); err != cuda.ErrorInvalidValue {
		t.Fatalf("StreamDestroy: %v", err)
	}
	if err := mod.StreamSynchronize(0); err != cuda.ErrorInvalidValue {
		t.Fatalf("StreamSynchronize: %v", err)
	}
	if err := mod.MemcpyAsync(0, 1, cuda.MemcpyHostToDevice, 0); err != cuda.ErrorInvalidValue {
		t.Fatalf("MemcpyAsync: %v", err)
	}
	if _, err := mod.EventCreate(); err != cuda.ErrorInvalidValue {
		t.Fatalf("EventCreate: %v", err)
	}
	if err := mod.EventRecord(nil, 0); err != cuda.ErrorInvalidValue {
		t.Fatalf("EventRecord: %v", err)
	}
	if err := mod.EventSynchronize(nil); err != cuda.ErrorInvalidValue {
		t.Fatalf("EventSynchronize: %v", err)
	}
	if _, err := mod.EventElapsed(nil, nil); err != cuda.ErrorInvalidValue {
		t.Fatalf("EventElapsed: %v", err)
	}
}

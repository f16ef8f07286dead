package wrapper

import (
	"context"
	"errors"
	"testing"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/cuda"
	"convgpu/internal/protocol"
)

// downCaller simulates an unreachable scheduler.
type downCaller struct{}

func (downCaller) Call(context.Context, *protocol.Message) (*protocol.Message, error) {
	return nil, errors.New("injected transport failure")
}

func (downCaller) Post(context.Context, *protocol.Message) error {
	return errors.New("injected transport failure")
}

// TestAllocFailsClosedWhenSchedulerUnreachable: a transport failure on
// the allocation round trip must surface as the CUDA out-of-memory
// error — never a locally granted allocation the scheduler doesn't know
// about.
func TestAllocFailsClosedWhenSchedulerUnreachable(t *testing.T) {
	r := newRig(t, mib(512))
	mod := New(r.rt, downCaller{}, 100)
	_, err := mod.Malloc(mib(64))
	if !errors.Is(err, cuda.ErrorMemoryAllocation) {
		t.Fatalf("err = %v, want cudaErrorMemoryAllocation", err)
	}
	// Nothing was allocated on the device behind the scheduler's back.
	if used := r.dev.Used(); used != 0 {
		t.Fatalf("device used = %v after failed alloc", used)
	}
	mod.mu.Lock()
	tracked := len(mod.allocs)
	mod.mu.Unlock()
	if tracked != 0 {
		t.Fatalf("%d allocations tracked after failure", tracked)
	}
}

// TestReplayStateRestoresUsage: after the scheduler loses all state (a
// restart), replaying the wrapper's live allocations rebuilds the
// accounting; replaying against a scheduler that never lost it is a
// no-op.
func TestReplayStateRestoresUsage(t *testing.T) {
	r := newRig(t, mib(512))
	if _, err := r.mod.Malloc(mib(100)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.mod.Malloc(mib(50)); err != nil {
		t.Fatal(err)
	}
	usedBefore := infoUsed(t, r.st, r.id)

	// Replay against the same, still-intact scheduler: idempotent.
	if err := r.mod.ReplayState(context.Background(), r.spy); err != nil {
		t.Fatal(err)
	}
	if got := infoUsed(t, r.st, r.id); got != usedBefore {
		t.Fatalf("used changed across idempotent replay: %v -> %v", usedBefore, got)
	}

	// A second daemon on a fresh core stands in for a restarted
	// scheduler: the replay rebuilds the usage from the wrapper's tracked
	// allocations.
	st2 := core.MustNew(core.Config{Capacity: 5 * mib(1024)})
	s2 := startSched(t, st2)
	s2.register(r.id, mib(512))
	if err := r.mod.ReplayState(context.Background(), s2.Caller(r.id)); err != nil {
		t.Fatal(err)
	}
	if got := infoUsed(t, st2, r.id); got != usedBefore {
		t.Fatalf("restored used = %v, want %v (allocs + context overhead)", got, usedBefore)
	}
	if err := st2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayStateForgetsFreedAllocs: freed memory must not be replayed.
func TestReplayStateForgetsFreedAllocs(t *testing.T) {
	r := newRig(t, mib(512))
	ptr, err := r.mod.Malloc(mib(100))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.mod.Malloc(mib(30)); err != nil {
		t.Fatal(err)
	}
	if err := r.mod.Free(ptr); err != nil {
		t.Fatal(err)
	}
	r.mod.Flush()

	st2 := core.MustNew(core.Config{Capacity: 5 * mib(1024)})
	s2 := startSched(t, st2)
	s2.register(r.id, mib(512))
	if err := r.mod.ReplayState(context.Background(), s2.Caller(r.id)); err != nil {
		t.Fatal(err)
	}
	want := mib(30) + core.DefaultContextOverhead
	if got := infoUsed(t, st2, r.id); got != want {
		t.Fatalf("restored used = %v, want %v (the freed 100MiB must not replay)", got, want)
	}
}

// TestReplayStateFailsClosedOverLimit: a replay the scheduler cannot
// honor (restored usage above the container's limit) is an error, not a
// silent partial restore.
func TestReplayStateFailsClosedOverLimit(t *testing.T) {
	r := newRig(t, mib(512))
	if _, err := r.mod.Malloc(mib(400)); err != nil {
		t.Fatal(err)
	}
	st2 := core.MustNew(core.Config{Capacity: 5 * mib(1024)})
	s2 := startSched(t, st2)
	s2.register(r.id, mib(100)) // shrunken limit
	if err := r.mod.ReplayState(context.Background(), s2.Caller(r.id)); err == nil {
		t.Fatal("replay over limit succeeded")
	}
}

// TestStartHeartbeats: heartbeats flow until stopped.
func TestStartHeartbeats(t *testing.T) {
	r := newRig(t, mib(512))
	stop := r.mod.StartHeartbeats(2 * time.Millisecond)
	deadline := time.Now().Add(3 * time.Second)
	for len(r.spy.byType(protocol.TypeHeartbeat)) < 3 {
		if time.Now().After(deadline) {
			t.Fatal("heartbeats never flowed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop()
	n := len(r.spy.byType(protocol.TypeHeartbeat))
	time.Sleep(20 * time.Millisecond)
	if got := len(r.spy.byType(protocol.TypeHeartbeat)); got != n {
		t.Fatalf("heartbeats kept flowing after stop: %d -> %d", n, got)
	}
}

func infoUsed(t *testing.T, st *core.State, id core.ContainerID) bytesize.Size {
	t.Helper()
	info, err := st.Info(id)
	if err != nil {
		t.Fatal(err)
	}
	return info.Used
}

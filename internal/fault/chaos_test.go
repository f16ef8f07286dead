package fault_test

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/cuda"
	"convgpu/internal/daemon"
	"convgpu/internal/fault"
	"convgpu/internal/gpu"
	"convgpu/internal/ipc"
	"convgpu/internal/leak"
	"convgpu/internal/model"
	"convgpu/internal/protocol"
	"convgpu/internal/wrapper"
)

// chaosSeeds is how many seeded fault schedules the suite replays. The
// default keeps a plain `go test ./...` quick; `make chaos` raises it to
// the full sweep (a schedule that wedges a suspended allocation costs a
// watchdog interval, so the full sweep takes a few minutes under -race).
var chaosSeeds = flag.Int("chaos.seeds", 16, "number of seeded chaos schedules to replay")

const (
	chaosCapacity = 1000 // MiB
	chaosLimitA   = 700  // MiB
	chaosLimitB   = 600  // MiB; overcommitted with A so suspensions occur
	chaosOps      = 12   // ops per container per schedule
	chaosWatchdog = 800 * time.Millisecond
)

func cmib(n int) bytesize.Size { return bytesize.Size(n) * bytesize.MiB }

// chaosTenants is the two-tenant table every chaos schedule registers
// under: both carry a hard quota below the device capacity, so the
// tenant quota invariant (sum of a tenant's grants never exceeds its
// quota) is live on every interleaving the fault plan produces —
// including mid-reconnect replays and watchdog-cancelled teardowns.
func chaosTenants() (a, b core.Tenant) {
	a = core.Tenant{Name: "alpha", Weight: 2, Priority: 5, Quota: cmib(768)}
	b = core.Tenant{Name: "beta", Weight: 1, Priority: 1, Quota: cmib(512)}
	return
}

// checkTenantQuotas asserts the hard quota invariant over the live
// rollup. CheckInvariants enforces the same bound inside the core; this
// re-derives it from the public Tenants() surface so a rollup bug can't
// mask a quota breach (or vice versa).
func checkTenantQuotas(st core.Scheduler) error {
	for _, tu := range st.Tenants() {
		if tu.Quota > 0 && tu.Grant > tu.Quota {
			return fmt.Errorf("tenant %s grant %v exceeds quota %v", tu.Name, tu.Grant, tu.Quota)
		}
	}
	return nil
}

// TestChaos replays seeded fault schedules against the full
// daemon↔wrapper stack: two wrapper modules over reconnecting clients
// whose connections drop, delay, corrupt, truncate, and hard-close on
// schedule. After every operation the scheduler's core invariants are
// checked, and after healing the transport and closing both sessions the
// pool must hold the full capacity again — no grant may leak or be
// double-counted no matter where a fault landed.
func TestChaos(t *testing.T) {
	// Goroutine hygiene over the whole sweep: every daemon, server conn,
	// reconnector, and wrapper report goroutine must have wound down by
	// the end of the test.
	leak.Check(t)
	for seed := int64(1); seed <= int64(*chaosSeeds); seed++ {
		seed := seed
		ok := t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaosSchedule(t, seed)
		})
		if !ok {
			t.Fatalf("seed %d violated an invariant; replay with -run 'TestChaos/seed=%d$' -chaos.seeds=%d", seed, seed, *chaosSeeds)
		}
	}
}

func runChaosSchedule(t *testing.T, seed int64) {
	st := core.MustNew(core.Config{Capacity: cmib(chaosCapacity), ContextOverhead: 1})
	d, err := daemon.Start(daemon.Config{BaseDir: filepath.Join(t.TempDir(), "cv"), Core: st})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Structural history checking rides along: whatever interleaving the
	// faults produce, the event stream itself must stay safe
	// (conservation, ticket discipline, per-container FIFO). Replaces the
	// daemon's telemetry observer — this suite asserts behavior, not
	// metrics.
	hist := &model.History{}
	st.SetObserver(hist.Observer())

	ctl, err := ipc.Dial(d.ControlSocket())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	tenA, tenB := chaosTenants()
	sockA := chaosRegister(t, ctl, "a", cmib(chaosLimitA), tenA)
	sockB := chaosRegister(t, ctl, "b", cmib(chaosLimitB), tenB)

	plan := fault.NewPlan(seed, fault.Config{
		DropProb:     0.02,
		DelayProb:    0.10,
		CorruptProb:  0.04,
		TruncateProb: 0.04,
		CloseProb:    0.05,
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dev := gpu.New(gpu.K20m())

	modA, recA := chaosModule(ctx, plan, sockA, dev, 1, seed)
	defer recA.Close()
	modB, recB := chaosModule(ctx, plan, sockB, dev, 2, seed)
	defer recB.Close()

	// Drive both containers concurrently; every op is followed by an
	// invariant check, so a violation is caught at the fault that caused
	// it, not at teardown.
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for i, mod := range []*wrapper.Module{modA, modB} {
		wg.Add(1)
		go func(mod *wrapper.Module, opSeed int64) {
			defer wg.Done()
			errs <- chaosOpsLoop(ctx, st, mod, opSeed)
		}(mod, seed*100+int64(i))
	}

	// Watchdog: a fault can legitimately wedge an allocation (a dropped
	// response on a deadline-exempt alloc, or both containers suspended
	// against each other). Cancelling the module context is exactly what
	// container teardown does — the suspended call must unblock and the
	// daemon must reclaim the ticket when the connection drops.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(chaosWatchdog):
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			buf := make([]byte, 1<<20)
			t.Fatalf("ops wedged past context cancel\n%s", buf[:runtime.Stack(buf, true)])
		}
	}
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("invariant violated mid-schedule: %v", err)
		}
	}

	// Heal the transport, tear the sessions down over a reliable path,
	// and demand the pool is whole again.
	plan.Heal()
	cancel()
	recA.Close() // dropping the conns releases any parked tickets
	recB.Close()
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("invariant violated after disconnect: %v", err)
	}
	if err := checkTenantQuotas(st); err != nil {
		t.Fatalf("tenant quota violated after disconnect: %v", err)
	}
	for _, id := range []string{"a", "b"} {
		resp, err := ctl.Call(context.Background(), &protocol.Message{Type: protocol.TypeClose, Container: id})
		if err != nil {
			t.Fatalf("close %s: %v", id, err)
		}
		if !resp.OK {
			t.Fatalf("close %s refused: %s", id, resp.Error)
		}
		protocol.ReleaseMessage(resp)
	}
	if free := st.PoolFree(); free != cmib(chaosCapacity) {
		t.Fatalf("pool after teardown = %v, want full capacity %v (leaked grant)", free, cmib(chaosCapacity))
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("invariant violated after teardown: %v", err)
	}
	// Both sessions closed over a healed transport: the capture must be
	// structurally safe AND fully drained — a ticket still parked here is
	// a request the chaos lost without cancelling.
	if err := hist.CheckDrained(func(int) bytesize.Size { return cmib(chaosCapacity) }); err != nil {
		t.Fatalf("event history violates structural invariants: %v", err)
	}
}

func chaosRegister(t *testing.T, ctl *ipc.Client, id string, limit bytesize.Size, ten core.Tenant) string {
	t.Helper()
	resp, err := ctl.Call(context.Background(), &protocol.Message{
		Type: protocol.TypeRegister, Container: id, Limit: int64(limit),
		Tenant: ten.Name, TenantWeight: ten.Weight, TenantPriority: ten.Priority,
		TenantQuota: int64(ten.Quota), TenantGuarantee: int64(ten.Guarantee),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("register %s refused: %s", id, resp.Error)
	}
	sock := filepath.Join(resp.SocketDir, protocol.SocketFileName)
	protocol.ReleaseMessage(resp)
	return sock
}

// chaosModule builds one container's wrapper over a reconnecting client
// whose every connection runs under the fault plan — the production
// wiring with a hostile transport swapped in through the Dial seam.
func chaosModule(ctx context.Context, plan *fault.Plan, sock string, dev *gpu.Device, pid int, seed int64) (*wrapper.Module, *ipc.Reconnector) {
	var mod *wrapper.Module
	rec := ipc.NewReconnector(ipc.ReconnectConfig{
		Dial: func() (net.Conn, error) {
			c, err := net.Dial("unix", sock)
			if err != nil {
				return nil, err
			}
			return plan.Wrap(c), nil
		},
		Backoff:     ipc.Backoff{Base: time.Millisecond, Max: 20 * time.Millisecond},
		CallTimeout: 200 * time.Millisecond,
		Seed:        seed,
		OnReconnect: func(c *ipc.Client) error { return mod.ReplayState(ctx, c) },
	})
	mod = wrapper.New(cuda.NewRuntime(dev, pid), rec, pid, wrapper.WithContext(ctx))
	return mod, rec
}

// chaosOpsLoop runs one container's randomized workload — allocations,
// frees of live pointers, and meminfo queries. Transport-induced call
// failures are tolerated (the wrapper fails closed); what must never
// happen is a core invariant breaking, checked after every op.
func chaosOpsLoop(ctx context.Context, st core.Scheduler, mod *wrapper.Module, opSeed int64) error {
	rng := rand.New(rand.NewSource(opSeed))
	var ptrs []cuda.DevPtr
	for i := 0; i < chaosOps && ctx.Err() == nil; i++ {
		r := rng.Intn(10)
		switch {
		case r < 5:
			size := cmib(10 + rng.Intn(51))
			if ptr, err := mod.Malloc(size); err == nil {
				ptrs = append(ptrs, ptr)
			}
		case r < 8 && len(ptrs) > 0:
			j := rng.Intn(len(ptrs))
			mod.Free(ptrs[j])
			ptrs = append(ptrs[:j], ptrs[j+1:]...)
		default:
			mod.MemGetInfo()
		}
		if err := st.CheckInvariants(); err != nil {
			return fmt.Errorf("after op %d: %w", i, err)
		}
		if err := checkTenantQuotas(st); err != nil {
			return fmt.Errorf("after op %d: %w", i, err)
		}
	}
	return nil
}

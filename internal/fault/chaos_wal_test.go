package fault_test

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"convgpu/internal/core"
	"convgpu/internal/daemon"
	"convgpu/internal/fault"
	"convgpu/internal/gpu"
	"convgpu/internal/ipc"
	"convgpu/internal/leak"
	"convgpu/internal/protocol"
	"convgpu/internal/wal"
	"convgpu/internal/wrapper"
)

// maxWALSeeds bounds the WAL chaos sweep: each schedule pays the same
// watchdog budget as TestChaos plus a full daemon restart, so the
// sweep replays a slice of the seed range rather than doubling the
// whole `make chaos` wall time.
const maxWALSeeds = 12

// TestChaosWALRecovery replays seeded fault schedules against a
// WAL-backed daemon, then crashes past it. Allocation traffic appends
// nothing, so while the two faulted wrappers run a third goroutine
// registers and closes short-lived containers over the reliable control
// connection: the log is written all through the hostile phase. After
// it, one container closes cleanly, the daemon is shut down, and a fresh
// daemon (new core, same log) must recover exactly the acknowledged set
// — the one still-open session, none of the churned ones — whatever the
// faults did to the transport.
func TestChaosWALRecovery(t *testing.T) {
	leak.Check(t)
	seeds := *chaosSeeds
	if seeds > maxWALSeeds {
		seeds = maxWALSeeds
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		ok := t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaosWALSchedule(t, seed)
		})
		if !ok {
			t.Fatalf("seed %d violated an invariant; replay with -run 'TestChaosWALRecovery/seed=%d$'", seed, seed)
		}
	}
}

func runChaosWALSchedule(t *testing.T, seed int64) {
	walDir := filepath.Join(t.TempDir(), "wal")
	base := filepath.Join(t.TempDir(), "cv")
	l, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	st := core.MustNew(core.Config{Capacity: cmib(chaosCapacity), ContextOverhead: 1})
	d, err := daemon.Start(daemon.Config{BaseDir: base, Core: st, WAL: l})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

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

	appendsBefore := l.Stats().Appends
	churnStop := make(chan struct{})
	churnErr := make(chan error, 1)
	go func() { churnErr <- chaosChurn(churnStop, ctl) }()

	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for i, mod := range []*wrapper.Module{modA, modB} {
		wg.Add(1)
		go func(mod *wrapper.Module, opSeed int64) {
			defer wg.Done()
			errs <- chaosOpsLoop(ctx, st, mod, opSeed)
		}(mod, seed*1000+int64(i))
	}
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
	close(churnStop)
	if err := <-churnErr; err != nil {
		t.Fatalf("churn over the reliable control connection: %v", err)
	}
	if grown := l.Stats().Appends - appendsBefore; grown == 0 {
		t.Fatal("the hostile phase appended nothing to the log")
	} else {
		t.Logf("hostile phase: %d appends", grown)
	}

	// Heal, close one container over a reliable path, and crash the
	// daemon. The log is the only state that survives.
	plan.Heal()
	cancel()
	recA.Close()
	recB.Close()
	resp, err := ctl.Call(context.Background(), &protocol.Message{Type: protocol.TypeClose, Container: "a"})
	if err != nil || !resp.OK {
		t.Fatalf("close a: %v %+v", err, resp)
	}
	protocol.ReleaseMessage(resp)
	if err := d.Close(); err != nil {
		t.Fatalf("daemon close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}

	// Recovery: fresh core, same log. Exactly b must come back — not a,
	// not one churned session — with the limit its registration
	// acknowledged.
	l2, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	st2 := core.MustNew(core.Config{Capacity: cmib(chaosCapacity), ContextOverhead: 1})
	d2, err := daemon.Start(daemon.Config{BaseDir: base, Core: st2, WAL: l2})
	if err != nil {
		t.Fatalf("recovery start: %v", err)
	}
	defer d2.Close()
	if _, err := st2.Info("a"); err == nil {
		t.Error("closed session a resurrected by recovery")
	}
	info, err := st2.Info("b")
	if err != nil {
		t.Fatalf("session b not recovered: %v", err)
	}
	if info.Limit != cmib(chaosLimitB) {
		t.Errorf("recovered limit = %v, want %v", info.Limit, cmib(chaosLimitB))
	}
	if snap := st2.Snapshot(); len(snap) != 1 {
		t.Errorf("recovery brought back %d sessions, want b alone: %+v", len(snap), snap)
	}
	if err := st2.CheckInvariants(); err != nil {
		t.Fatalf("invariant violated after recovery: %v", err)
	}

	// The recovered session closes cleanly and the pool is whole.
	ctl2, err := ipc.Dial(d2.ControlSocket())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl2.Close()
	resp, err = ctl2.Call(context.Background(), &protocol.Message{Type: protocol.TypeClose, Container: "b"})
	if err != nil || !resp.OK {
		t.Fatalf("close b after recovery: %v %+v", err, resp)
	}
	protocol.ReleaseMessage(resp)
	if free := st2.PoolFree(); free != cmib(chaosCapacity) {
		t.Fatalf("pool after recovered teardown = %v, want %v", free, cmib(chaosCapacity))
	}
}

// chaosChurn registers and closes one short-lived container after
// another over ctl until stop closes; every one it registered is closed
// (and acknowledged closed) when it returns.
func chaosChurn(stop <-chan struct{}, ctl *ipc.Client) error {
	for n := 0; ; n++ {
		id := fmt.Sprintf("churn-%d", n)
		for _, msg := range []*protocol.Message{
			{Type: protocol.TypeRegister, Container: id, Limit: int64(cmib(10))},
			{Type: protocol.TypeClose, Container: id},
		} {
			resp, err := ctl.Call(context.Background(), msg)
			if err != nil {
				return fmt.Errorf("%s %s: %w", msg.Type, id, err)
			}
			ok, refusal := resp.OK, resp.Error
			protocol.ReleaseMessage(resp)
			if !ok {
				return fmt.Errorf("%s %s refused: %s", msg.Type, id, refusal)
			}
		}
		select {
		case <-stop:
			return nil
		case <-time.After(time.Millisecond):
		}
	}
}

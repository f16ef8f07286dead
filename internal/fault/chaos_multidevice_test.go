package fault_test

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/daemon"
	"convgpu/internal/fault"
	"convgpu/internal/gpu"
	"convgpu/internal/ipc"
	"convgpu/internal/leak"
	"convgpu/internal/model"
	"convgpu/internal/multigpu"
	"convgpu/internal/protocol"
	"convgpu/internal/wrapper"
)

// TestChaosMultiDevice replays the seeded fault schedules against a
// 2-device daemon: four containers round-robin onto two devices, each
// device overcommitted exactly like the single-device suite (700 + 600
// MiB limits against a 1000 MiB pool), four wrapper modules over
// fault-plan transports. Invariants are checked per device after every
// operation (the routing plane prefixes violations with the device
// ordinal), and teardown demands every device's pool whole — device
// routing must not let a fault leak a grant across pools. Shares
// -chaos.seeds with TestChaos, so `make chaos` sweeps both.
func TestChaosMultiDevice(t *testing.T) {
	leak.Check(t) // the whole sweep must wind its goroutines down
	for seed := int64(1); seed <= int64(*chaosSeeds); seed++ {
		seed := seed
		ok := t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaosMultiDeviceSchedule(t, seed)
		})
		if !ok {
			t.Fatalf("seed %d violated an invariant; replay with -run 'TestChaosMultiDevice/seed=%d$' -chaos.seeds=%d", seed, seed, *chaosSeeds)
		}
	}
}

func runChaosMultiDeviceSchedule(t *testing.T, seed int64) {
	st, err := multigpu.New(multigpu.Config{
		Devices:           2,
		CapacityPerDevice: cmib(chaosCapacity),
		Policy:            &multigpu.RoundRobin{},
		Device:            core.Config{ContextOverhead: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := daemon.Start(daemon.Config{BaseDir: filepath.Join(t.TempDir(), "cv"), Core: st})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Structural history checking over both devices' interleaved event
	// streams (replaces the daemon's telemetry observer).
	hist := &model.History{}
	st.SetObserver(hist.Observer())

	ctl, err := ipc.Dial(d.ControlSocket())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	// Round-robin lands a,c on device 0 and b,d on device 1: each device
	// is overcommitted exactly like the single-device schedule.
	ids := []string{"a", "b", "c", "d"}
	socks := make([]string, len(ids))
	for i, id := range ids {
		limit := cmib(chaosLimitA)
		if i >= 2 {
			limit = cmib(chaosLimitB)
		}
		socks[i] = chaosRegister(t, ctl, id, limit, core.Tenant{})
		wantDev := i % 2
		if dev, err := st.Placement(core.ContainerID(id)); err != nil || dev != wantDev {
			t.Fatalf("placement %s = (%d, %v), want device %d", id, dev, err, wantDev)
		}
	}

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

	mods := make([]*wrapper.Module, len(ids))
	recs := make([]*ipc.Reconnector, len(ids))
	for i := range ids {
		mods[i], recs[i] = chaosModule(ctx, plan, socks[i], dev, i+1, seed)
		defer recs[i].Close()
	}

	errs := make(chan error, len(ids))
	var wg sync.WaitGroup
	for i, mod := range mods {
		wg.Add(1)
		go func(mod *wrapper.Module, opSeed int64) {
			defer wg.Done()
			errs <- chaosOpsLoop(ctx, st, mod, opSeed)
		}(mod, seed*100+int64(i))
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

	plan.Heal()
	cancel()
	for _, rec := range recs {
		rec.Close() // dropping the conns releases any parked tickets
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("invariant violated after disconnect: %v", err)
	}
	for _, id := range ids {
		resp, err := ctl.Call(context.Background(), &protocol.Message{Type: protocol.TypeClose, Container: id})
		if err != nil {
			t.Fatalf("close %s: %v", id, err)
		}
		if !resp.OK {
			t.Fatalf("close %s refused: %s", id, resp.Error)
		}
		protocol.ReleaseMessage(resp)
	}
	for _, dv := range st.Devices() {
		if dv.PoolFree != dv.Capacity {
			t.Fatalf("device %d pool after teardown = %v, want full capacity %v (leaked grant)",
				dv.Index, dv.PoolFree, dv.Capacity)
		}
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("invariant violated after teardown: %v", err)
	}
	if err := hist.CheckDrained(func(int) bytesize.Size { return cmib(chaosCapacity) }); err != nil {
		t.Fatalf("event history violates structural invariants: %v", err)
	}
}

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
	"sync/atomic"
	"testing"
	"time"

	"convgpu/internal/cluster"
	"convgpu/internal/core"
	"convgpu/internal/cuda"
	"convgpu/internal/daemon"
	"convgpu/internal/errs"
	"convgpu/internal/fault"
	"convgpu/internal/gpu"
	"convgpu/internal/ipc"
	"convgpu/internal/leak"
	"convgpu/internal/protocol"
	"convgpu/internal/wrapper"
)

// nodeSeeds is how many seeded node-fault schedules the suite replays;
// `make chaos-nodes` raises it to the full sweep.
var nodeSeeds = flag.Int("chaos.nodeseeds", 8, "number of seeded node-kill chaos schedules to replay")

const (
	nodeCapacity      = 500 // MiB per GPU, 2 nodes x 2 GPUs
	nodeContainers    = 5   // overcommitted against 4 devices so suspensions occur
	nodeLimit         = 450 // MiB
	nodeProbeInterval = 2 * time.Millisecond
	nodeDownAfter     = 2
	nodeWatchdog      = 2 * time.Second
)

// TestChaosNodeKill replays seeded node-scope fault schedules against
// the full daemon↔wrapper stack over a 2x2 cluster: while wrapper
// modules allocate and free, a fault driver kills nodes (hard, until
// the health loop declares them down and fails them over), stalls
// probes into the suspect band, partitions both nodes at once (the
// fail-closed path), flaps nodes through down-and-back, and drains /
// revives nodes through the daemon's admin verbs. After every
// operation the cluster invariants must hold; after healing, every
// session is closed and the pool must hold the full cluster capacity
// again — a failover may migrate or observably evict work, but must
// never leak a grant or lose a ticket silently.
func TestChaosNodeKill(t *testing.T) {
	// Goroutine hygiene across the sweep covers the health-probe loop:
	// StopHealth is synchronous and must leave nothing behind.
	leak.Check(t)
	for seed := int64(1); seed <= int64(*nodeSeeds); seed++ {
		seed := seed
		ok := t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runNodeKillSchedule(t, seed)
		})
		if !ok {
			t.Fatalf("seed %d violated an invariant; replay with -run 'TestChaosNodeKill/seed=%d$' -chaos.nodeseeds=%d", seed, seed, *nodeSeeds)
		}
	}
}

func runNodeKillSchedule(t *testing.T, seed int64) {
	clus, err := cluster.New(cluster.Config{
		Nodes: 2, GPUsPerNode: 2, CapacityPerGPU: cmib(nodeCapacity), Device: core.Config{ContextOverhead: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := daemon.Start(daemon.Config{BaseDir: filepath.Join(t.TempDir(), "cv"), Core: clus})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	nf := fault.NewNodeFaults(2)
	if err := clus.StartHealth(cluster.HealthConfig{
		Interval: nodeProbeInterval, SuspectAfter: 1, DownAfter: nodeDownAfter, Probe: nf.Probe,
	}); err != nil {
		t.Fatal(err)
	}
	defer clus.StopHealth()

	ctl, err := ipc.Dial(d.ControlSocket())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	socks := make([]string, nodeContainers)
	for i := range socks {
		socks[i] = chaosRegister(t, ctl, fmt.Sprintf("c%d", i), cmib(nodeLimit), core.Tenant{})
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dev := gpu.New(gpu.K20m())

	mods := make([]*wrapper.Module, nodeContainers)
	for i, sock := range socks {
		mod, rec := nodeModule(ctx, sock, dev, i+1, seed)
		defer rec.Close()
		mods[i] = mod
	}

	// The fault driver runs alongside the workload, forcing node deaths
	// and admin transitions on a seeded schedule. killed counts deaths
	// the health loop verifiably declared (state reached down), so the
	// failover counter can be checked against it afterwards.
	var killed atomic.Int64
	driverDone := make(chan struct{})
	go func() {
		defer close(driverDone)
		nodeFaultDriver(ctx, clus, d, nf, seed, &killed)
	}()

	results := make(chan error, nodeContainers)
	var wg sync.WaitGroup
	for i, mod := range mods {
		wg.Add(1)
		go func(mod *wrapper.Module, opSeed int64) {
			defer wg.Done()
			results <- chaosOpsLoop(ctx, clus, mod, opSeed)
		}(mod, seed*100+int64(i))
	}

	// Watchdog: node faults can legitimately wedge a suspended call (its
	// node died mid-park and the migration re-parked it behind a full
	// survivor). Cancelling the module context is container teardown;
	// everything must unwind.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(nodeWatchdog):
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			buf := make([]byte, 1<<20)
			t.Fatalf("ops wedged past context cancel\n%s", buf[:runtime.Stack(buf, true)])
		}
	}
	close(results)
	for err := range results {
		if err != nil {
			t.Fatalf("invariant violated mid-schedule: %v", err)
		}
	}
	cancel()
	<-driverDone

	// Teardown: heal the probes, return any drained node to service, and
	// wait for the health loop's auto-revival to bring every node up.
	nf.Heal()
	for n := 0; n < 2; n++ {
		if st, err := clus.State(n); err == nil && st == core.NodeDraining {
			clus.Revive(n)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		up := 0
		for n := 0; n < 2; n++ {
			if st, err := clus.State(n); err == nil && st == core.NodeUp {
				up++
			}
		}
		if up == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("nodes did not return to service after heal: %+v", clus.NodeStatuses())
		}
		time.Sleep(time.Millisecond)
	}
	clus.StopHealth()

	// Close every session over the control socket. Containers evicted by
	// a failover are already gone — the close must answer with the
	// machine-readable unknown-container class, not hang or panic.
	for i := 0; i < nodeContainers; i++ {
		resp, err := ctl.Call(context.Background(), &protocol.Message{
			Type: protocol.TypeClose, Container: fmt.Sprintf("c%d", i),
		})
		if err != nil {
			t.Fatalf("close c%d: %v", i, err)
		}
		if !resp.OK && resp.Code != errs.CodeUnknownContainer {
			t.Fatalf("close c%d failed with unexpected code %q: %s", i, resp.Code, resp.Error)
		}
		protocol.ReleaseMessage(resp)
	}

	if free, want := clus.PoolFree(), cmib(nodeCapacity)*4; free != want {
		t.Fatalf("pool after teardown = %v, want full capacity %v (leaked grant)", free, want)
	}
	if err := clus.CheckInvariants(); err != nil {
		t.Fatalf("invariant violated after teardown: %v", err)
	}
	if k := killed.Load(); k > 0 && d.Obs().Failovers.Value() < uint64(k) {
		t.Fatalf("driver forced %d node deaths but only %d failovers recorded", k, d.Obs().Failovers.Value())
	}
}

// nodeFaultDriver injects the node-scope fault schedule: hard kills
// (held until the membership view confirms the death), suspect blips,
// whole-cluster partitions, flapping restarts, and drain / revive
// admin verbs.
func nodeFaultDriver(ctx context.Context, clus *cluster.Cluster, d *daemon.Daemon, nf *fault.NodeFaults, seed int64, killed *atomic.Int64) {
	rng := rand.New(rand.NewSource(seed * 31))
	for i := 0; i < 4 && ctx.Err() == nil; i++ {
		time.Sleep(time.Duration(2+rng.Intn(8)) * time.Millisecond)
		node := rng.Intn(2)
		switch rng.Intn(5) {
		case 0: // hard kill, verified down, then revived (fresh slot)
			nf.Kill(node)
			if waitNodeState(ctx, clus, node, core.NodeDown) {
				killed.Add(1)
			}
			nf.Revive(node)
			waitNodeState(ctx, clus, node, core.NodeUp)
		case 1: // probe blip: suspect, then recovery
			nf.Stall(node, 1)
		case 2: // partition both nodes: fail closed, then auto-revival
			nf.Partition([]int{0, 1}, nodeDownAfter+1)
		case 3: // flapping restart: down and straight back
			nf.Flap(node, nodeDownAfter)
		case 4: // admin drain / revive; a node that is down refuses the drain
			_ = d.DrainNode(node)
			time.Sleep(2 * time.Millisecond)
			_ = d.ReviveNode(node)
		}
	}
}

// waitNodeState polls the membership view until node reaches want.
func waitNodeState(ctx context.Context, clus *cluster.Cluster, node int, want core.NodeState) bool {
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		if st, err := clus.State(node); err == nil && st == want {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// nodeModule is chaosModule without frame faults: node-scope chaos
// exercises the membership and failover layers over a clean transport.
func nodeModule(ctx context.Context, sock string, dev *gpu.Device, pid int, seed int64) (*wrapper.Module, *ipc.Reconnector) {
	var mod *wrapper.Module
	rec := ipc.NewReconnector(ipc.ReconnectConfig{
		Dial:        func() (net.Conn, error) { return net.Dial("unix", sock) },
		Backoff:     ipc.Backoff{Base: time.Millisecond, Max: 20 * time.Millisecond},
		CallTimeout: 200 * time.Millisecond,
		Seed:        seed,
		OnReconnect: func(c *ipc.Client) error { return mod.ReplayState(ctx, c) },
	})
	mod = wrapper.New(cuda.NewRuntime(dev, pid), rec, pid, wrapper.WithContext(ctx))
	return mod, rec
}

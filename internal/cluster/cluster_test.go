package cluster

import (
	"testing"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
)

func mib(n int) bytesize.Size { return bytesize.Size(n) * bytesize.MiB }

func nodes(containersAndFree ...int) []NodeInfo {
	// Pairs: containers, totalFree (MiB). MaxDeviceCapacity fixed 5120,
	// MaxDevicePool = totalFree for simplicity.
	var out []NodeInfo
	for i := 0; i+1 < len(containersAndFree); i += 2 {
		out = append(out, NodeInfo{
			Index:             i / 2,
			Containers:        containersAndFree[i],
			TotalFree:         mib(containersAndFree[i+1]),
			MaxDevicePool:     mib(containersAndFree[i+1]),
			MaxDeviceCapacity: mib(5120),
		})
	}
	return out
}

func TestSpreadFewestContainers(t *testing.T) {
	if got := (Spread{}).Place(mib(100), nodes(3, 500, 1, 200, 2, 900)); got != 1 {
		t.Fatalf("spread = %d, want 1 (fewest containers)", got)
	}
	// Ties break by free memory.
	if got := (Spread{}).Place(mib(100), nodes(1, 200, 1, 900)); got != 1 {
		t.Fatalf("spread tie = %d, want 1 (more free)", got)
	}
}

func TestSpreadSkipsIncapableNodes(t *testing.T) {
	ns := nodes(0, 100, 5, 5000)
	ns[0].MaxDeviceCapacity = mib(50)
	if got := (Spread{}).Place(mib(100), ns); got != 1 {
		t.Fatalf("spread = %d, want 1 (node 0 too small)", got)
	}
	ns[1].MaxDeviceCapacity = mib(50)
	if got := (Spread{}).Place(mib(100), ns); got != -1 {
		t.Fatalf("impossible spread = %d, want -1", got)
	}
}

func TestBinpackMostLoadedThatFits(t *testing.T) {
	if got := (Binpack{}).Place(mib(100), nodes(3, 500, 1, 200, 2, 900)); got != 0 {
		t.Fatalf("binpack = %d, want 0 (most loaded fitting)", got)
	}
	// Nothing fits fully: spread fallback.
	if got := (Binpack{}).Place(mib(1000), nodes(3, 500, 1, 200, 2, 900)); got != 1 {
		t.Fatalf("binpack fallback = %d, want 1", got)
	}
}

func TestRandomStrategyDeterministicAndEligible(t *testing.T) {
	ns := nodes(0, 100, 0, 100, 0, 100)
	ns[1].MaxDeviceCapacity = mib(10) // ineligible for 100 MiB
	a := NewRandomStrategy(3)
	b := NewRandomStrategy(3)
	for i := 0; i < 50; i++ {
		pa := a.Place(mib(100), ns)
		pb := b.Place(mib(100), ns)
		if pa != pb {
			t.Fatalf("same seed diverged at %d", i)
		}
		if pa == 1 {
			t.Fatal("random placed on ineligible node")
		}
	}
	if got := NewRandomStrategy(1).Place(mib(100), nil); got != -1 {
		t.Fatalf("random on empty = %d, want -1", got)
	}
}

func newCluster(t *testing.T, nodes, gpus int, strat Strategy) *Cluster {
	t.Helper()
	c, err := New(Config{
		Nodes:          nodes,
		GPUsPerNode:    gpus,
		CapacityPerGPU: mib(1000),
		Strategy:       strat,
		Device:         core.Config{ContextOverhead: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0, GPUsPerNode: 1, CapacityPerGPU: mib(10)}); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := New(Config{Nodes: 1, GPUsPerNode: 0, CapacityPerGPU: mib(10)}); err == nil {
		t.Error("zero gpus accepted")
	}
	c, err := New(Config{Nodes: 2, GPUsPerNode: 1, CapacityPerGPU: mib(10)})
	if err != nil {
		t.Fatal(err)
	}
	if c.StrategyName() != StrategySpread {
		t.Errorf("default strategy = %q", c.StrategyName())
	}
}

func TestClusterRegisterSpreads(t *testing.T) {
	c := newCluster(t, 3, 1, Spread{})
	for i := 0; i < 3; i++ {
		if _, err := c.Register(core.ContainerID(string(rune('a'+i))), mib(500)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range c.Nodes() {
		if n.Containers != 1 {
			t.Fatalf("node %d has %d containers, want 1 each: %+v", n.Index, n.Containers, c.Nodes())
		}
	}
	node, dev, err := c.NodePlacement("a")
	if err != nil || node < 0 || dev != 0 {
		t.Fatalf("placement = (%d,%d,%v)", node, dev, err)
	}
}

func TestClusterForwarding(t *testing.T) {
	c := newCluster(t, 2, 2, Spread{})
	if _, err := c.Register("a", mib(500)); err != nil {
		t.Fatal(err)
	}
	res, err := c.RequestAlloc("a", 1, mib(100))
	if err != nil || res.Decision != core.Accept {
		t.Fatalf("alloc: %+v %v", res, err)
	}
	if err := c.ConfirmAlloc("a", 1, 0xA, mib(100)); err != nil {
		t.Fatal(err)
	}
	if _, total, err := c.MemInfo("a"); err != nil || total != mib(500) {
		t.Fatalf("meminfo total = %v err=%v", total, err)
	}
	if info, err := c.Info("a"); err != nil || info.Used != mib(100)+1 {
		t.Fatalf("info = %+v %v", info, err)
	}
	if size, _, err := c.Free("a", 1, 0xA); err != nil || size != mib(100) {
		t.Fatalf("free = %v %v", size, err)
	}
	if _, _, err := c.ProcessExit("a", 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Close("a"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.NodePlacement("a"); err == nil {
		t.Fatal("placement survives close")
	}
	if _, err := c.RequestAlloc("ghost", 1, 1); err == nil {
		t.Fatal("unknown container accepted")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterRejectsImpossibleLimit(t *testing.T) {
	c := newCluster(t, 2, 1, Spread{})
	if _, err := c.Register("big", mib(2000)); err == nil {
		t.Fatal("impossible limit accepted")
	}
}

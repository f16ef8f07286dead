// Package cluster implements the paper's second piece of future work
// (§V): "adopt the ConVGPU in the clustering system like Docker Swarm."
//
// A cluster is a set of nodes, each running its own multi-GPU ConVGPU
// scheduler (package multigpu). A cluster-level strategy — named after
// Docker Swarm's scheduling strategies — picks the node for each new
// container; the node's placement policy then picks the GPU, and the
// per-GPU memory scheduler takes over exactly as in the single-machine
// system. Nothing in the core changes: the cluster layer only routes.
//
// Strategies:
//
//   - spread: the node with the fewest containers (Swarm's default),
//     ties broken by most free GPU memory;
//   - binpack: the most loaded node that can still fully hold the
//     container, concentrating load to leave whole nodes free;
//   - random: uniform over nodes that can ever hold the container.
package cluster

import (
	"fmt"
	"math/rand"
	"sync"

	"convgpu/internal/bytesize"
	"convgpu/internal/clock"
	"convgpu/internal/core"
	"convgpu/internal/errs"
	"convgpu/internal/multigpu"
)

// NodeInfo summarizes one node for strategy decisions.
type NodeInfo struct {
	// Index is the node ordinal.
	Index int
	// Name is the node's display name.
	Name string
	// Containers is the number of containers placed on the node.
	Containers int
	// MaxDeviceCapacity is the largest single-GPU capacity, the bound
	// on what limit the node can ever hold.
	MaxDeviceCapacity bytesize.Size
	// MaxDevicePool is the largest per-GPU free pool on the node.
	MaxDevicePool bytesize.Size
	// TotalFree sums free pool across the node's GPUs.
	TotalFree bytesize.Size
}

// Strategy selects a node for a container. Place returns a node index
// or -1 when no node can ever hold the limit.
type Strategy interface {
	Name() string
	Place(limit bytesize.Size, nodes []NodeInfo) int
}

// Strategy names (Docker Swarm's vocabulary; internal/policy maps them
// to the types below).
const (
	StrategySpread  = "spread"
	StrategyBinpack = "binpack"
	StrategyRandom  = "random"
)

// Spread picks the node with the fewest containers (ties: most total
// free memory) among nodes that can ever hold the limit.
type Spread struct{}

// Name implements Strategy.
func (Spread) Name() string { return StrategySpread }

// Place implements Strategy.
func (Spread) Place(limit bytesize.Size, nodes []NodeInfo) int {
	best := -1
	for _, n := range nodes {
		if n.MaxDeviceCapacity < limit {
			continue
		}
		if best == -1 ||
			n.Containers < nodes[best].Containers ||
			(n.Containers == nodes[best].Containers && n.TotalFree > nodes[best].TotalFree) {
			best = n.Index
		}
	}
	return best
}

// Binpack picks the most loaded node whose largest free GPU pool still
// covers the whole limit, falling back to spread when none fits.
type Binpack struct{}

// Name implements Strategy.
func (Binpack) Name() string { return StrategyBinpack }

// Place implements Strategy.
func (Binpack) Place(limit bytesize.Size, nodes []NodeInfo) int {
	best := -1
	for _, n := range nodes {
		if n.MaxDeviceCapacity < limit || n.MaxDevicePool < limit {
			continue
		}
		if best == -1 || n.Containers > nodes[best].Containers {
			best = n.Index
		}
	}
	if best != -1 {
		return best
	}
	return Spread{}.Place(limit, nodes)
}

// RandomStrategy places uniformly among nodes that can ever hold the
// limit; seeded for reproducible experiments.
type RandomStrategy struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewRandomStrategy builds a seeded random strategy.
func NewRandomStrategy(seed int64) *RandomStrategy {
	return &RandomStrategy{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Strategy.
func (*RandomStrategy) Name() string { return StrategyRandom }

// Place implements Strategy.
func (r *RandomStrategy) Place(limit bytesize.Size, nodes []NodeInfo) int {
	var eligible []int
	for _, n := range nodes {
		if n.MaxDeviceCapacity >= limit {
			eligible = append(eligible, n.Index)
		}
	}
	if len(eligible) == 0 {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return eligible[r.rng.Intn(len(eligible))]
}

// Config assembles a cluster.
type Config struct {
	// Nodes is the number of nodes (required, >= 1).
	Nodes int
	// GPUsPerNode is the GPU count per node (required, >= 1).
	GPUsPerNode int
	// CapacityPerGPU is each GPU's schedulable memory.
	CapacityPerGPU bytesize.Size
	// AlgorithmFactory supplies each GPU's wake-order algorithm, called
	// per GPU with its seed (AlgSeed + 100·node + GPU index); nil gives
	// every GPU FIFO.
	AlgorithmFactory func(seed int64) core.Algorithm
	// AlgSeed seeds the randomized algorithms.
	AlgSeed int64
	// DevicePolicyFactory supplies each node's device placement policy —
	// called once per node, so stateful policies (round-robin) stay
	// per-node. nil places least-loaded.
	DevicePolicyFactory func() multigpu.Policy
	// Strategy places containers on nodes (default spread).
	Strategy Strategy
	// Device is the per-GPU scheduler template handed to every node's
	// multigpu.Config.Device unchanged: the Clock every scheduler in the
	// cluster shares, ContextOverhead, PersistentGrants, FaultTolerant.
	Device core.Config
}

// Cluster routes containers to per-node ConVGPU schedulers. All
// per-container forwarding and whole-cluster aggregation comes from the
// shared core.Router (the same plane multigpu.State routes devices
// with); the cluster layer itself only decides node placement. Cluster
// implements core.Scheduler — Placement reports the GPU within the
// owning node; NodePlacement adds which node that is.
type Cluster struct {
	*core.Router
	names    []string
	strategy Strategy
	cfg      Config // retained to build replacement members at failover
	clk      clock.Clock

	// regMu serializes placement decisions (see multigpu.State.Register)
	// and failovers: FailNode migrates containers under it, so a report
	// is atomic with respect to new registrations.
	regMu sync.Mutex

	// nodeMu guards the membership view (leaf lock: never held while
	// calling into members or the router).
	nodeMu     sync.Mutex
	states     []core.NodeState
	failovers  []uint64
	onFailover func(core.FailoverReport)

	// health is the probe loop's lifecycle (see StartHealth).
	healthMu   sync.Mutex
	healthStop chan struct{}
	healthDone chan struct{}
}

var _ core.Scheduler = (*Cluster)(nil)

// New builds a cluster of identical nodes.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", cfg.Nodes)
	}
	if cfg.GPUsPerNode < 1 {
		return nil, fmt.Errorf("cluster: need at least one GPU per node, got %d", cfg.GPUsPerNode)
	}
	if cfg.Strategy == nil {
		cfg.Strategy = Spread{}
	}
	clk := cfg.Device.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	c := &Cluster{
		names:     make([]string, 0, cfg.Nodes),
		strategy:  cfg.Strategy,
		cfg:       cfg,
		clk:       clk,
		states:    make([]core.NodeState, cfg.Nodes),
		failovers: make([]uint64, cfg.Nodes),
	}
	members := make([]core.Scheduler, 0, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		sched, err := c.newMember(i)
		if err != nil {
			return nil, err
		}
		members = append(members, sched)
		c.names = append(c.names, fmt.Sprintf("node-%d", i))
	}
	c.Router = core.NewRouter(members, "node")
	return c, nil
}

// newMember builds node i's scheduler. The failover path calls it again
// to fill a dead node's slot: the same seed offset rebuilds the node
// exactly as it started, so a revived node is indistinguishable from a
// freshly booted one (and the model oracle can mirror the reset).
func (c *Cluster) newMember(i int) (core.Scheduler, error) {
	var pol multigpu.Policy // nil: multigpu's least-loaded default
	if c.cfg.DevicePolicyFactory != nil {
		pol = c.cfg.DevicePolicyFactory()
	}
	return multigpu.New(multigpu.Config{
		Devices:           c.cfg.GPUsPerNode,
		CapacityPerDevice: c.cfg.CapacityPerGPU,
		AlgorithmFactory:  c.cfg.AlgorithmFactory,
		AlgSeed:           c.cfg.AlgSeed + int64(i)*100,
		Policy:            pol,
		Device:            c.cfg.Device,
	})
}

// Nodes reports per-node summaries.
func (c *Cluster) Nodes() []NodeInfo {
	out := make([]NodeInfo, c.NumMembers())
	for i := range out {
		info := NodeInfo{Index: i, Name: c.names[i]}
		for _, d := range c.Member(i).Devices() {
			info.Containers += d.Containers
			info.TotalFree += d.PoolFree
			if d.Capacity > info.MaxDeviceCapacity {
				info.MaxDeviceCapacity = d.Capacity
			}
			if d.PoolFree > info.MaxDevicePool {
				info.MaxDevicePool = d.PoolFree
			}
		}
		out[i] = info
	}
	return out
}

// StrategyName returns the active strategy's name.
func (c *Cluster) StrategyName() string { return c.strategy.Name() }

// Register places the container on a node (strategy) and GPU (node
// policy) and registers it with that GPU's scheduler. Only nodes the
// membership view considers eligible (up or suspect) are offered to the
// strategy: draining nodes refuse new registrations, and down nodes
// hold no capacity. With no eligible node at all, admission fails
// closed with ErrDaemonUnavailable.
func (c *Cluster) Register(id core.ContainerID, limit bytesize.Size) (bytesize.Size, error) {
	return c.RegisterTenant(id, limit, core.Tenant{})
}

// RegisterTenant is Register carrying a tenant identity, forwarded to
// the chosen node's scheduler.
func (c *Cluster) RegisterTenant(id core.ContainerID, limit bytesize.Size, t core.Tenant) (bytesize.Size, error) {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	if n, err := c.PlacementIndex(id); err == nil {
		return c.Member(n).RegisterTenant(id, limit, t)
	}
	nodes, anyEligible := c.eligibleNodes()
	if !anyEligible {
		return 0, fmt.Errorf("%w: no node accepting registrations", errs.ErrDaemonUnavailable)
	}
	node := c.strategy.Place(limit, nodes)
	if node < 0 || node >= c.NumMembers() || !c.eligible(node) {
		return 0, fmt.Errorf("%w: no node can hold a %v container", errs.ErrOverCapacity, limit)
	}
	granted, err := c.Member(node).RegisterTenant(id, limit, t)
	if err != nil {
		return 0, err
	}
	c.SetPlacement(id, node)
	return granted, nil
}

// EnsureRegistered routes to the recorded node when the container is
// known and places it afresh otherwise.
func (c *Cluster) EnsureRegistered(id core.ContainerID, limit bytesize.Size) (bytesize.Size, error) {
	return c.EnsureRegisteredTenant(id, limit, core.Tenant{})
}

// EnsureRegisteredTenant is EnsureRegistered carrying a tenant
// identity.
func (c *Cluster) EnsureRegisteredTenant(id core.ContainerID, limit bytesize.Size, t core.Tenant) (bytesize.Size, error) {
	if n, err := c.PlacementIndex(id); err == nil {
		return c.Member(n).EnsureRegisteredTenant(id, limit, t)
	}
	return c.RegisterTenant(id, limit, t)
}

// RestorePlacement pins a recovering container onto a node that serves
// the recorded device, like the router's version but skipping nodes
// that are down or draining — session recovery must not re-admit
// containers onto a node that refuses new work.
func (c *Cluster) RestorePlacement(id core.ContainerID, device int) error {
	if n, err := c.PlacementIndex(id); err == nil {
		return c.Member(n).RestorePlacement(id, device)
	}
	for i := 0; i < c.NumMembers(); i++ {
		if !c.eligible(i) {
			continue
		}
		if err := c.Member(i).RestorePlacement(id, device); err == nil {
			c.SetPlacement(id, i)
			return nil
		}
	}
	return fmt.Errorf("%w: %d (no eligible node serves it)", core.ErrUnknownDevice, device)
}

// NodePlacement reports the node and GPU a container lives on.
func (c *Cluster) NodePlacement(id core.ContainerID) (node, device int, err error) {
	node, err = c.PlacementIndex(id)
	if err != nil {
		return -1, -1, err
	}
	device, err = c.Member(node).Placement(id)
	return node, device, err
}

// Package multigpu implements the paper's first stated piece of future
// work (§V): "extend the ConVGPU in a multiple GPU with an appropriate
// algorithm to achieve better performance."
//
// The design keeps the single-GPU scheduler core untouched: one
// core.State per device, plus a placement policy that decides, at
// registration time, which GPU a container lives on. A container's
// processes then talk to their device's scheduler exactly as before —
// CUDA contexts are bound to one device, so a container never migrates.
//
// Four placement policies are provided, mirroring the flavor of the
// paper's four redistribution algorithms:
//
//   - round-robin: rotate across devices;
//   - least-loaded: the device with the most unassigned memory;
//   - first-fit: the first device whose pool covers the full request;
//   - best-fit: the device with the smallest pool still covering the
//     full request (pack tight, keep big pools for big containers).
package multigpu

import (
	"fmt"
	"sync"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/errs"
)

// DeviceInfo summarizes one device for placement decisions.
type DeviceInfo = core.DeviceInfo

// Policy selects a device for a new container. Place returns a device
// index, or -1 to refuse (no device can ever hold the limit).
type Policy interface {
	Name() string
	Place(limit bytesize.Size, devs []DeviceInfo) int
}

// Policy names (internal/policy maps them to the types below).
const (
	PolicyRoundRobin  = "roundrobin"
	PolicyLeastLoaded = "leastloaded"
	PolicyFirstFit    = "firstfit"
	PolicyBestFit     = "bestfit"
)

// RoundRobin rotates placements across devices that can ever fit the
// limit.
type RoundRobin struct {
	mu   sync.Mutex
	next int
}

// Name implements Policy.
func (*RoundRobin) Name() string { return PolicyRoundRobin }

// Place implements Policy.
func (r *RoundRobin) Place(limit bytesize.Size, devs []DeviceInfo) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < len(devs); i++ {
		d := devs[(r.next+i)%len(devs)]
		if d.Capacity >= limit {
			r.next = (d.Index + 1) % len(devs)
			return d.Index
		}
	}
	return -1
}

// LeastLoaded picks the device with the largest unassigned pool,
// balancing memory pressure.
type LeastLoaded struct{}

// Name implements Policy.
func (LeastLoaded) Name() string { return PolicyLeastLoaded }

// Place implements Policy.
func (LeastLoaded) Place(limit bytesize.Size, devs []DeviceInfo) int {
	best := -1
	for _, d := range devs {
		if d.Capacity < limit {
			continue
		}
		if best == -1 || d.PoolFree > devs[best].PoolFree {
			best = d.Index
		}
	}
	return best
}

// FirstFit picks the first device whose free pool covers the whole
// limit, falling back to the least-loaded when none does.
type FirstFit struct{}

// Name implements Policy.
func (FirstFit) Name() string { return PolicyFirstFit }

// Place implements Policy.
func (FirstFit) Place(limit bytesize.Size, devs []DeviceInfo) int {
	for _, d := range devs {
		if d.Capacity >= limit && d.PoolFree >= limit {
			return d.Index
		}
	}
	return LeastLoaded{}.Place(limit, devs)
}

// BestFitDevice picks the device with the smallest pool that still
// covers the whole limit (tight packing keeps large pools intact for
// large containers), falling back to the least-loaded.
type BestFitDevice struct{}

// Name implements Policy.
func (BestFitDevice) Name() string { return PolicyBestFit }

// Place implements Policy.
func (BestFitDevice) Place(limit bytesize.Size, devs []DeviceInfo) int {
	best := -1
	for _, d := range devs {
		if d.Capacity < limit || d.PoolFree < limit {
			continue
		}
		if best == -1 || d.PoolFree < devs[best].PoolFree {
			best = d.Index
		}
	}
	if best != -1 {
		return best
	}
	return LeastLoaded{}.Place(limit, devs)
}

// Config assembles a multi-GPU scheduler.
type Config struct {
	// Devices is the number of GPUs (required, >= 1).
	Devices int
	// CapacityPerDevice is each device's schedulable memory.
	CapacityPerDevice bytesize.Size
	// Capacities, when non-empty, gives every device its own schedulable
	// memory instead of the uniform CapacityPerDevice — the MIG-style
	// heterogeneous topology where one physical GPU is partitioned into
	// unequal instances (a 3g.20gb next to two 1g.5gb slices). Its
	// length must equal Devices. Placement policies see the per-device
	// capacities through DeviceInfo.Capacity exactly as before; nothing
	// else in the scheduler assumes uniformity.
	Capacities []bytesize.Size
	// AlgorithmFactory supplies each device's wake-order algorithm. It is
	// called once per device with that device's seed (AlgSeed + device
	// index); nil gives every device FIFO.
	AlgorithmFactory func(seed int64) core.Algorithm
	// AlgSeed seeds the randomized algorithms.
	AlgSeed int64
	// Policy places containers onto devices (default least-loaded).
	Policy Policy
	// Device is the template every device's scheduler is built from:
	// Capacity, DeviceIndex and Algorithm are filled in per device here,
	// and everything else — the Clock all devices share, ContextOverhead,
	// PersistentGrants, FaultTolerant — reaches each core.State as given,
	// so a per-device setting cannot be lost on the way through this
	// layer.
	Device core.Config
}

// State is the multi-GPU scheduler: one core.State per device (state i
// is built with DeviceIndex i) behind the shared routing plane, plus
// the placement policy consulted at registration time. It implements
// core.Scheduler, so a daemon serves it exactly like a single device.
type State struct {
	*core.Router
	policy Policy

	// regMu serializes placement decisions: Devices() must be observed
	// and the chosen device registered atomically with respect to other
	// registrations, or two containers could race past a policy that
	// meant to separate them.
	regMu sync.Mutex
}

var _ core.Scheduler = (*State)(nil)

// New builds the multi-GPU scheduler.
func New(cfg Config) (*State, error) {
	if cfg.Devices < 1 {
		return nil, fmt.Errorf("multigpu: need at least one device, got %d", cfg.Devices)
	}
	if cfg.Policy == nil {
		cfg.Policy = LeastLoaded{}
	}
	if len(cfg.Capacities) > 0 && len(cfg.Capacities) != cfg.Devices {
		return nil, fmt.Errorf("multigpu: %d per-device capacities for %d devices", len(cfg.Capacities), cfg.Devices)
	}
	members := make([]core.Scheduler, cfg.Devices)
	for i := range members {
		var alg core.Algorithm = core.FIFO{}
		if cfg.AlgorithmFactory != nil {
			alg = cfg.AlgorithmFactory(cfg.AlgSeed + int64(i))
		}
		capacity := cfg.CapacityPerDevice
		if len(cfg.Capacities) > 0 {
			capacity = cfg.Capacities[i]
		}
		dev := cfg.Device
		dev.Capacity, dev.DeviceIndex, dev.Algorithm = capacity, i, alg
		st, err := core.New(dev)
		if err != nil {
			return nil, err
		}
		members[i] = st
	}
	return &State{
		Router: core.NewRouter(members, "device"),
		policy: cfg.Policy,
	}, nil
}

// PolicyName returns the active placement policy's name.
func (s *State) PolicyName() string { return s.policy.Name() }

// Register places the container on a device per the policy and
// registers it there; Placement reports the chosen device afterwards.
// The container belongs to the default tenant; RegisterTenant carries a
// tenant identity.
func (s *State) Register(id core.ContainerID, limit bytesize.Size) (bytesize.Size, error) {
	return s.RegisterTenant(id, limit, core.Tenant{})
}

// RegisterTenant is Register carrying a tenant identity, forwarded to
// the chosen device's scheduler.
func (s *State) RegisterTenant(id core.ContainerID, limit bytesize.Size, t core.Tenant) (bytesize.Size, error) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if d, err := s.PlacementIndex(id); err == nil {
		// Already placed: let the owning device report the duplicate.
		return s.Member(d).RegisterTenant(id, limit, t)
	}
	device := s.policy.Place(limit, s.Devices())
	if device < 0 || device >= s.NumMembers() {
		return 0, fmt.Errorf("%w: no device can hold a %v container", errs.ErrOverCapacity, limit)
	}
	granted, err := s.Member(device).RegisterTenant(id, limit, t)
	if err != nil {
		return 0, err
	}
	s.SetPlacement(id, device)
	return granted, nil
}

// EnsureRegistered routes to the recorded device when the container is
// known (including a placement pinned by RestorePlacement during
// session recovery), and otherwise places it afresh — the idempotent
// re-registration the daemon's recovery path needs on a multi-device
// scheduler.
func (s *State) EnsureRegistered(id core.ContainerID, limit bytesize.Size) (bytesize.Size, error) {
	return s.EnsureRegisteredTenant(id, limit, core.Tenant{})
}

// EnsureRegisteredTenant is EnsureRegistered carrying a tenant
// identity.
func (s *State) EnsureRegisteredTenant(id core.ContainerID, limit bytesize.Size, t core.Tenant) (bytesize.Size, error) {
	if d, err := s.PlacementIndex(id); err == nil {
		return s.Member(d).EnsureRegisteredTenant(id, limit, t)
	}
	return s.RegisterTenant(id, limit, t)
}

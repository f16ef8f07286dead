package policy

import (
	"cmp"

	"convgpu/internal/bytesize"
	"convgpu/internal/cluster"
	"convgpu/internal/core"
	"convgpu/internal/multigpu"
)

// Spec describes a scheduling backend by topology and policy names —
// everything the facade, the daemon's command line, the load harness and
// the experiments each used to wire by hand.
type Spec struct {
	// Nodes > 1 builds a cluster of that many nodes, each with Devices
	// GPUs; otherwise a single node.
	Nodes int
	// Devices is the GPU count (per node in a cluster); < 1 means 1.
	Devices int
	// Capacity is each device's schedulable memory.
	Capacity bytesize.Size
	// Capacities, when non-empty, gives a single node's devices their own
	// capacities in place of the uniform Capacity (multigpu.Config).
	Capacities []bytesize.Size
	// Wake, Place and Strategy name the wake-order policy (default fifo),
	// the device placement policy (default leastloaded) and the node
	// placement strategy (default spread). Seed seeds the randomized ones:
	// device i of node n draws from Seed + 100·n + i, the strategy from
	// Seed.
	Wake, Place, Strategy string
	Seed                  int64
	// Device is the template every device's core.State is built from;
	// Capacity, DeviceIndex and Algorithm are filled in per device.
	Device core.Config
}

// NewScheduler assembles the backend spec describes: a cluster.Cluster
// for more than one node, a multigpu.State for more than one device (or
// per-device capacities), else a single core.State. All three names are
// resolved first, so a name no table knows fails before anything is
// built, whether or not the topology uses it.
func NewScheduler(spec Spec) (core.Scheduler, error) {
	wake, err := wakes.find(cmp.Or(spec.Wake, core.AlgFIFO))
	if err != nil {
		return nil, err
	}
	place, err := places.find(cmp.Or(spec.Place, multigpu.PolicyLeastLoaded))
	if err != nil {
		return nil, err
	}
	strategy, err := strategies.find(cmp.Or(spec.Strategy, cluster.StrategySpread))
	if err != nil {
		return nil, err
	}
	devices := max(spec.Devices, 1)
	switch {
	case spec.Nodes > 1:
		return cluster.New(cluster.Config{
			Nodes:               spec.Nodes,
			GPUsPerNode:         devices,
			CapacityPerGPU:      spec.Capacity,
			AlgorithmFactory:    wake.build,
			AlgSeed:             spec.Seed,
			DevicePolicyFactory: func() multigpu.Policy { return place.build(spec.Seed) },
			Strategy:            strategy.build(spec.Seed),
			Device:              spec.Device,
		})
	case devices > 1 || len(spec.Capacities) > 0:
		return multigpu.New(multigpu.Config{
			Devices:           devices,
			CapacityPerDevice: spec.Capacity,
			Capacities:        spec.Capacities,
			AlgorithmFactory:  wake.build,
			AlgSeed:           spec.Seed,
			Policy:            place.build(spec.Seed),
			Device:            spec.Device,
		})
	default:
		spec.Device.Capacity, spec.Device.Algorithm = spec.Capacity, wake.build(spec.Seed)
		return core.New(spec.Device)
	}
}

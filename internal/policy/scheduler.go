package policy

import (
	"convgpu/internal/bytesize"
	"convgpu/internal/cluster"
	"convgpu/internal/core"
	"convgpu/internal/multigpu"
)

// Spec describes a scheduling backend by topology and policy names —
// everything the facade, the daemon's command line and the load harness
// each used to wire by hand.
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
	// placement strategy (default spread); Seed seeds the randomized ones.
	Wake, Place, Strategy string
	Seed                  int64
	// Device is the template every device's core.State is built from;
	// Capacity, DeviceIndex and Algorithm are filled in per device.
	Device core.Config
}

// NewScheduler assembles the backend spec describes: a cluster.Cluster
// for more than one node, a multigpu.State for more than one device (or
// per-device capacities), else a single core.State — each with its
// policies resolved through this package's registries.
func NewScheduler(spec Spec) (core.Scheduler, error) {
	if spec.Wake == "" {
		spec.Wake = core.AlgFIFO
	}
	if spec.Place == "" {
		spec.Place = multigpu.PolicyLeastLoaded
	}
	if spec.Devices < 1 {
		spec.Devices = 1
	}
	wake := func(seed int64) (core.Algorithm, error) {
		return NewWake(spec.Wake, Config{Seed: seed})
	}
	place := func() (multigpu.Policy, error) {
		return NewPlace(spec.Place, Config{Seed: spec.Seed})
	}
	switch {
	case spec.Nodes > 1:
		if spec.Strategy == "" {
			spec.Strategy = cluster.StrategySpread
		}
		strategy, err := cluster.NewStrategy(spec.Strategy, spec.Seed)
		if err != nil {
			return nil, err
		}
		return cluster.New(cluster.Config{
			Nodes:               spec.Nodes,
			GPUsPerNode:         spec.Devices,
			CapacityPerGPU:      spec.Capacity,
			AlgorithmFactory:    wake,
			AlgSeed:             spec.Seed,
			DevicePolicyFactory: place,
			Strategy:            strategy,
			Device:              spec.Device,
		})
	case spec.Devices > 1 || len(spec.Capacities) > 0:
		pol, err := place()
		if err != nil {
			return nil, err
		}
		return multigpu.New(multigpu.Config{
			Devices:           spec.Devices,
			CapacityPerDevice: spec.Capacity,
			Capacities:        spec.Capacities,
			AlgorithmFactory:  wake,
			AlgSeed:           spec.Seed,
			Policy:            pol,
			Device:            spec.Device,
		})
	default:
		alg, err := wake(spec.Seed)
		if err != nil {
			return nil, err
		}
		spec.Device.Capacity, spec.Device.Algorithm = spec.Capacity, alg
		return core.New(spec.Device)
	}
}

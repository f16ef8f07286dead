package convgpu

import (
	"fmt"
	"strings"
	"time"

	"convgpu/internal/core"
	"convgpu/internal/gpu"
	"convgpu/internal/obs"
	"convgpu/internal/policy"
)

// Option configures a Stack built by New. Options replace the old
// positional Config wiring: each names exactly the knob it turns, the
// zero set gives the paper's defaults (5 GiB K20m, FIFO), and new knobs
// can land without breaking call sites.
type Option func(*stackConfig) error

// stackConfig collects the options before assembly.
type stackConfig struct {
	baseDir       string
	capacity      Size
	devices       int
	placement     string
	nodes         int
	nodeStrategy  string
	nodeHealth    time.Duration
	algorithm     string
	algorithmSeed int64
	gpuProps      *gpu.Properties
	latency       bool
	createLatency time.Duration

	lease       time.Duration
	callTimeout time.Duration

	obs           *obs.Observability
	traceCapacity int

	faultTolerant    bool
	persistentGrants bool

	tenants []core.Tenant

	walDir  string
	walSync string
}

// defaultStackConfig returns the paper's defaults.
func defaultStackConfig() stackConfig {
	return stackConfig{capacity: 5 * GiB, algorithm: FIFO}
}

// WithBaseDir hosts the scheduler's control socket and per-container
// directories under dir instead of a fresh temporary directory.
func WithBaseDir(dir string) Option {
	return func(c *stackConfig) error {
		if dir == "" {
			return fmt.Errorf("convgpu: WithBaseDir: empty directory")
		}
		c.baseDir = dir
		return nil
	}
}

// WithCapacity sets the schedulable GPU memory (default the K20m's
// 5 GiB).
func WithCapacity(size Size) Option {
	return func(c *stackConfig) error {
		if size <= 0 {
			return fmt.Errorf("convgpu: WithCapacity: non-positive size %v", size)
		}
		c.capacity = size
		return nil
	}
}

// WithDevices serves n GPUs from one stack: the scheduler becomes a
// multi-device backend (one core per device behind the same interface),
// a placement policy assigns each registering container a device, and
// WithCapacity is read per device. The default (n <= 1) keeps the
// paper's single-GPU stack, byte-identical on the wire.
func WithDevices(n int) Option {
	return func(c *stackConfig) error {
		if n < 1 {
			return fmt.Errorf("convgpu: WithDevices: need at least one device, got %d", n)
		}
		c.devices = n
		return nil
	}
}

// WithPlacementPolicy selects the device placement policy for a
// multi-device stack by name or alias (any of PlacementPolicies; default
// least-loaded). New checks the name either way, but uses it only with
// WithDevices.
func WithPlacementPolicy(name string) Option {
	return func(c *stackConfig) error {
		if name == "" {
			return fmt.Errorf("convgpu: WithPlacementPolicy: empty name")
		}
		c.placement = name
		return nil
	}
}

// WithNodes serves an n-node cluster from one stack: each node carries
// WithDevices GPUs (one by default) of WithCapacity each, a Swarm-style
// strategy places each registering container on a node, and the
// membership layer (node states, drain/revive, failover) arbitrates
// which nodes accept work. The default (n <= 1) keeps the single-node
// stack.
func WithNodes(n int) Option {
	return func(c *stackConfig) error {
		if n < 1 {
			return fmt.Errorf("convgpu: WithNodes: need at least one node, got %d", n)
		}
		c.nodes = n
		return nil
	}
}

// WithNodeStrategy selects the node placement strategy for a cluster
// stack (any of ClusterStrategies; default spread). New checks the name
// either way, but uses it only with WithNodes.
func WithNodeStrategy(name string) Option {
	return func(c *stackConfig) error {
		if name == "" {
			return fmt.Errorf("convgpu: WithNodeStrategy: empty name")
		}
		c.nodeStrategy = name
		return nil
	}
}

// WithNodeHealth starts the cluster's health-probe loop at the given
// interval when the stack starts: nodes that stop answering probes are
// marked suspect, then down — at which point their containers and
// parked allocation requests fail over to surviving nodes — and a down
// node whose probes recover is revived automatically. Zero (the
// default) leaves health management manual (DrainNode / ReviveNode).
// Ignored without WithNodes.
func WithNodeHealth(interval time.Duration) Option {
	return func(c *stackConfig) error {
		if interval < 0 {
			return fmt.Errorf("convgpu: WithNodeHealth: negative interval %v", interval)
		}
		c.nodeHealth = interval
		return nil
	}
}

// WithAlgorithm selects the wake-order policy by name or alias: the
// paper's four algorithms (FIFO, BestFit, RecentUse, Random; default
// FIFO) or a tenant-aware policy (FairShare, QuotaFair, Priority). The
// stack, its telemetry and its admin API carry the canonical name; an
// unknown name fails at option time with the Policies list.
func WithAlgorithm(name string) Option {
	return func(c *stackConfig) error {
		canonical, ok := policy.ResolveWake(name)
		if !ok {
			return fmt.Errorf("convgpu: WithAlgorithm: unknown policy %q (have %s)",
				name, strings.Join(Policies(), "|"))
		}
		c.algorithm = canonical
		return nil
	}
}

// WithTenant provisions one named tenant on the stack's daemon
// (repeatable). Containers whose RunOptions carry the tenant's name
// register under these attributes: Weight orders the tenant under the
// fair-share policy, Priority under the priority policy (and entitles
// preemption of strictly lower priorities), Quota caps the tenant's
// summed grants per device, and Guarantee reserves pool memory while
// the tenant sits below it. The configured definition wins over
// attributes carried inline on the wire.
func WithTenant(t Tenant) Option {
	return func(c *stackConfig) error {
		if t.Name == "" {
			return fmt.Errorf("convgpu: WithTenant: tenant has no name")
		}
		for _, have := range c.tenants {
			if have.Name == t.Name {
				return fmt.Errorf("convgpu: WithTenant: tenant %q defined twice", t.Name)
			}
		}
		c.tenants = append(c.tenants, t)
		return nil
	}
}

// WithAlgorithmSeed seeds the Random algorithm deterministically.
func WithAlgorithmSeed(seed int64) Option {
	return func(c *stackConfig) error {
		c.algorithmSeed = seed
		return nil
	}
}

// WithGPU overrides the simulated device properties (default K20m).
// The device's total memory is set to the stack's capacity.
func WithGPU(props gpu.Properties) Option {
	return func(c *stackConfig) error {
		p := props
		c.gpuProps = &p
		return nil
	}
}

// WithLatency enables the Figure 4 latency calibration on the device,
// making CUDA calls consume realistic time.
func WithLatency() Option {
	return func(c *stackConfig) error {
		c.latency = true
		return nil
	}
}

// WithCreateLatency models the container runtime's creation cost
// (Fig. 5 uses ~0.4 s).
func WithCreateLatency(d time.Duration) Option {
	return func(c *stackConfig) error {
		if d < 0 {
			return fmt.Errorf("convgpu: WithCreateLatency: negative duration %v", d)
		}
		c.createLatency = d
		return nil
	}
}

// WithLease reaps container sessions silent for longer than d (no
// traffic, no heartbeat): a SIGKILLed container never sends a close
// signal, and without a lease its grant would be pinned forever. Zero
// (the default) disables leasing.
func WithLease(d time.Duration) Option {
	return func(c *stackConfig) error {
		if d < 0 {
			return fmt.Errorf("convgpu: WithLease: negative duration %v", d)
		}
		c.lease = d
		return nil
	}
}

// WithCallTimeout bounds each control-socket call (registration,
// close); the introspection getters read the daemon in process and
// cross no socket. Allocation requests are exempt by design — a
// suspended allocation legitimately blocks. Zero disables the bound;
// the per-call context passed to Run/Create still applies either way.
func WithCallTimeout(d time.Duration) Option {
	return func(c *stackConfig) error {
		if d < 0 {
			return fmt.Errorf("convgpu: WithCallTimeout: negative duration %v", d)
		}
		c.callTimeout = d
		return nil
	}
}

// WithObservability installs a caller-built telemetry bundle instead of
// the stack's default one — e.g. to share one registry across stacks.
// Observability is always on; this option only substitutes the sink.
func WithObservability(o *Observability) Option {
	return func(c *stackConfig) error {
		if o == nil {
			return fmt.Errorf("convgpu: WithObservability: nil bundle")
		}
		c.obs = o
		return nil
	}
}

// WithTraceCapacity sizes the event-trace ring of the stack's default
// observability bundle (obs.DefaultTraceCapacity when unset; negative
// disables trace retention). Ignored when WithObservability supplies a
// bundle, which carries its own ring.
func WithTraceCapacity(n int) Option {
	return func(c *stackConfig) error {
		c.traceCapacity = n
		return nil
	}
}

// WithFaultTolerant enables the rescue pass of the authors' prior
// fault-tolerant scheduler study (see core.Config.FaultTolerant).
func WithFaultTolerant() Option {
	return func(c *stackConfig) error {
		c.faultTolerant = true
		return nil
	}
}

// WithPersistentGrants keeps memory assigned to a container until it
// closes, never reclaiming paused containers' unused assignments (see
// core.Config.PersistentGrants for the trade-offs).
func WithPersistentGrants() Option {
	return func(c *stackConfig) error {
		c.persistentGrants = true
		return nil
	}
}

// WithWAL puts the scheduler daemon's write-ahead log under dir and
// makes it durable: every session-changing event (register, close,
// migrate, lease expiry, evict) is appended before it is acknowledged —
// and synced, unless WithWALSync relaxes the policy — and a restarted
// stack recovers by loading the newest snapshot and replaying the log
// tail. Allocations append none. Without WithWAL the daemon keeps the
// same log under its base directory and never fsyncs it: sessions
// survive a daemon restart on that directory, not a host crash.
func WithWAL(dir string) Option {
	return func(c *stackConfig) error {
		if dir == "" {
			return fmt.Errorf("convgpu: WithWAL: empty directory")
		}
		c.walDir = dir
		return nil
	}
}

// WithWALSync sets the WAL fsync policy: "always" (default — every
// session-changing record durable before acknowledgement), "none" (leave
// syncing to the OS), or a duration like "50ms" (group commits, bounding
// loss to one window). Requires WithWAL: the log under the base
// directory is never fsynced.
func WithWALSync(policy string) Option {
	return func(c *stackConfig) error {
		if policy == "" {
			return fmt.Errorf("convgpu: WithWALSync: empty policy")
		}
		c.walSync = policy
		return nil
	}
}

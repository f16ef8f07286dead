// Package convgpu is a reproduction of "ConVGPU: GPU Management
// Middleware in Container Based Virtualized Environment" (Kang, Jun,
// Kim, Kim, Kim — IEEE CLUSTER 2017): middleware that lets multiple
// containers share one GPU by virtualizing the *amount* of GPU memory
// each container may use.
//
// A CUDA wrapper module injected into every container (via the
// LD_PRELOAD seam) intercepts the allocation APIs of the paper's
// Table II and consults a host-side GPU memory scheduler over a UNIX
// domain socket. The scheduler accepts, suspends (pauses the container's
// allocation call), or rejects each request so that containers never
// oversubscribe physical GPU memory, and redistributes memory freed by
// terminating containers using one of four algorithms: FIFO, Best-Fit,
// Recent-Use, Random.
//
// This package is the public facade. It exposes:
//
//   - Stack, built with New(opts...) and brought up with Start(ctx):
//     the full middleware stack (simulated GPU + CUDA runtime, container
//     engine, scheduler daemon over real UNIX sockets, customized
//     nvidia-docker, volume plugin) assembled and wired, for running
//     containerized GPU workloads in-process;
//   - runtime observability: every Stack carries an Observability
//     bundle (counters, latency histograms, gauges, event trace); the
//     getters (Stats, Trace, Dump, Sessions, Tenants, Nodes, ...) read
//     the running daemon's documents in process, and AdminHandler
//     serves the same documents over HTTP under /v1;
//   - SimulateContext and Sweep: the discrete-event replay of the paper's
//     scheduling experiments (Figures 7/8, Tables IV/V) in virtual time;
//   - errors.Is-able sentinels (ErrRejected, ErrSuspendedTimeout,
//     ErrDaemonUnavailable, ErrOverCapacity) matching failures wherever
//     they surface, including across the daemon socket;
//   - re-exports of the option types a caller needs (container types,
//     algorithms, sizes).
//
// The hardware and proprietary components of the paper's testbed
// (Tesla K20m, CUDA 8, Docker, NVIDIA Docker) are faithful simulations;
// the scheduler, wire protocol, wrapper logic and algorithms are real
// implementations. See DESIGN.md for the substitution table and
// EXPERIMENTS.md for measured-vs-paper results.
package convgpu

import (
	"context"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/clock"
	"convgpu/internal/container"
	"convgpu/internal/core"
	"convgpu/internal/cuda"
	"convgpu/internal/gpu"
	"convgpu/internal/nvdocker"
	"convgpu/internal/plugin"
	"convgpu/internal/policy"
	"convgpu/internal/sim"
	"convgpu/internal/workload"
)

// Size is a byte quantity ("512MiB"-style). See ParseSize.
type Size = bytesize.Size

// Size units.
const (
	KiB = bytesize.KiB
	MiB = bytesize.MiB
	GiB = bytesize.GiB
)

// ParseSize parses "128MiB", "1g", "4096" (bytes).
func ParseSize(s string) (Size, error) { return bytesize.Parse(s) }

// Scheduling algorithm names (paper §III-D).
const (
	FIFO      = core.AlgFIFO
	BestFit   = core.AlgBestFit
	RecentUse = core.AlgRecentUse
	Random    = core.AlgRandom
)

// Tenant-aware policy names: wake-order policies for WithAlgorithm and
// the fragmentation-aware placement policy for WithPlacementPolicy.
const (
	FairShare = policy.WakeFairShare
	Priority  = policy.WakePriority
	FragAware = policy.PlaceFragAware
)

// Algorithms lists the four algorithm names in the paper's order.
func Algorithms() []string { return core.AlgorithmNames() }

// Policies lists every wake-order policy: the paper's four first, then
// the tenant-aware ones.
func Policies() []string { return policy.WakeNames() }

// PlacementPolicies lists every device placement policy.
func PlacementPolicies() []string { return policy.PlaceNames() }

// Tenant is the identity a container registers under on a shared
// scheduler: name, fair-share weight, preemption priority, and optional
// quota (hard per-device cap on summed grants) and guarantee (soft pool
// reservation). Provision tenants with WithTenant; bind containers with
// RunOptions.Tenant.
type Tenant = core.Tenant

// TenantUsage is one named tenant's aggregated scheduler state
// (Stack.Tenants): configured attributes plus live containers, grants,
// usage and pending requests.
type TenantUsage = core.TenantUsage

// Re-exported workload types (paper Table III).
type ContainerType = workload.ContainerType

// ContainerTypes returns the paper's Table III (nano .. xlarge).
func ContainerTypes() []ContainerType { return workload.Types() }

// CUDA is the (simulated) CUDA Runtime API surface a containerized
// process programs against; inside a ConVGPU container it is interposed
// by the wrapper module.
type CUDA = cuda.API

// CUDAStreams is the stream/event surface (cudaStreamCreate,
// cudaEventRecord, cudaMemcpyAsync, ...). It is not intercepted by
// ConVGPU — execution passes through — and is reached by type-asserting
// a Proc's CUDA: p.CUDA.(convgpu.CUDAStreams).
type CUDAStreams = cuda.StreamAPI

// Kernel describes a simulated kernel launch.
type Kernel = cuda.Kernel

// GPUDevice is the simulated GPU.
type GPUDevice = gpu.Device

// RawDevice returns a fresh simulated Tesla K20m outside any ConVGPU
// management — the state of the world under plain NVIDIA Docker, where
// containers collide on device memory unarbitrated.
func RawDevice() *GPUDevice { return gpu.New(gpu.K20m()) }

// RawCUDA binds a process directly to a raw device, with no wrapper
// module in between.
func RawCUDA(dev *GPUDevice, pid int) CUDA { return cuda.NewRuntime(dev, pid) }

// Image, Spec-level types re-exported for running containers.
type (
	// Image is a container image with labels.
	Image = container.Image
	// Proc is the in-container process view handed to programs.
	Proc = container.Proc
	// Program is code run inside a container.
	Program = container.Program
	// Container is a created container.
	Container = container.Container
	// RunOptions configures a Run through the customized nvidia-docker.
	RunOptions = nvdocker.Options
)

// Image label keys nvidia-docker consults.
const (
	VolumesNeededLabel = nvdocker.VolumesNeededLabel
	CUDAVersionLabel   = nvdocker.CUDAVersionLabel
	MemoryLimitLabel   = nvdocker.MemoryLimitLabel
)

// DefaultMemoryLimit is the 1 GiB fallback limit (paper §III-B).
const DefaultMemoryLimit = nvdocker.DefaultMemoryLimit

// SampleProgram returns the paper's evaluation sample program for a
// container type, with kernel time compressed by scale (1.0 = the
// paper's 5–45 s).
func SampleProgram(ct ContainerType, scale float64) Program {
	return workload.SampleProgram(ct, scale)
}

// MNISTProgram returns the Fig. 6 TensorFlow-MNIST-shaped workload.
func MNISTProgram(cfg MNISTConfig) Program { return workload.MNISTProgram(cfg) }

// MNISTConfig parameterizes MNISTProgram.
type MNISTConfig = workload.MNISTConfig

// CUDAImage returns an image carrying the labels a CUDA image has, with
// an optional memory-limit label.
func CUDAImage(name string, memoryLimit string) Image {
	labels := map[string]string{
		VolumesNeededLabel: "nvidia_driver",
		CUDAVersionLabel:   plugin.HostCUDAVersion,
	}
	if memoryLimit != "" {
		labels[MemoryLimitLabel] = memoryLimit
	}
	return Image{Name: name, Labels: labels}
}

// SchedulerInfo is a snapshot row of the scheduler's view.
type SchedulerInfo = core.ContainerInfo

// DeviceInfo summarizes one device a scheduler serves: index, capacity,
// free pool and placed-container count (Stack.Devices).
type DeviceInfo = core.DeviceInfo

// NodeStatus is one node's row of the cluster membership view
// (Stack.Nodes): its state (up, suspect, down, draining), capacity,
// free memory, container count and how many times it has failed over.
type NodeStatus = core.NodeStatus

// --- Discrete-event experiment surface (Figures 7/8, Tables IV/V) ---

// SimConfig configures a simulated scheduling run.
type SimConfig = sim.Config

// SimResult is the outcome of one simulated run.
type SimResult = sim.Result

// TraceEntry is one container arrival.
type TraceEntry = workload.TraceEntry

// GenerateTrace draws the paper's randomized cloud trace: n containers
// of uniformly random Table III types arriving every `spacing`.
func GenerateTrace(n int, spacing time.Duration, seed int64) []TraceEntry {
	return workload.GenerateTrace(n, spacing, seed)
}

// GeneratePoissonTrace draws a bursty cloud trace: Poisson arrivals with
// the given mean spacing (see the `poisson` experiment).
func GeneratePoissonTrace(n int, meanSpacing time.Duration, seed int64) []TraceEntry {
	return workload.GeneratePoissonTrace(n, meanSpacing, seed)
}

// SimulateContext replays one trace against the scheduler core in
// virtual time. The context is checked between simulated events, so a
// caller's deadline bounds even a pathological run.
func SimulateContext(ctx context.Context, trace []TraceEntry, cfg SimConfig) (SimResult, error) {
	return sim.RunContext(ctx, trace, cfg)
}

// Sweep is the paper's full Fig. 7/8 parameter sweep.
type Sweep = sim.Sweep

// SweepResult aggregates a sweep.
type SweepResult = sim.SweepResult

// DefaultSweep returns the paper's sweep: 4–38 containers step 2, four
// algorithms, six repetitions, 5 s arrivals.
func DefaultSweep() Sweep { return sim.DefaultSweep() }

// SimulateMultiGPU replays a trace against the multi-GPU extension
// (paper §V future work): `devices` GPUs of the K20m's capacity,
// containers placed by `policy` (any of PlacementPolicies) and scheduled
// per device by `algorithm` (any of Policies).
func SimulateMultiGPU(trace []TraceEntry, devices int, policy, algorithm string) (SimResult, error) {
	return simulateTopology(trace, topology{Devices: devices, Place: policy, Wake: algorithm})
}

// SimulateCluster replays a trace against the cluster extension (paper
// §V future work): `nodes` single-GPU nodes, containers placed by the
// Swarm-style `strategy` (any of ClusterStrategies). Seed 1 feeds the
// random strategy and the random algorithm alike.
func SimulateCluster(trace []TraceEntry, nodes int, strategy, algorithm string) (SimResult, error) {
	return simulateTopology(trace, topology{Nodes: nodes, Strategy: strategy, Wake: algorithm, Seed: 1})
}

// topology names policy.Spec where SimulateMultiGPU's parameter shadows
// the package.
type topology = policy.Spec

// simulateTopology replays trace on the K20m-sized backend spec
// describes, every scheduler in it on one virtual clock.
func simulateTopology(trace []TraceEntry, spec topology) (SimResult, error) {
	clk := clock.NewManual()
	spec.Capacity, spec.Device = sim.DeviceCapacity, core.Config{Clock: clk}
	sched, err := policy.NewScheduler(spec)
	if err != nil {
		return SimResult{}, err
	}
	return sim.RunWith(trace, sched, clk, sim.Config{})
}

// ClusterStrategies lists the Swarm-style strategies of the cluster
// extension.
func ClusterStrategies() []string { return policy.StrategyNames() }

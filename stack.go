package convgpu

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sync"

	"convgpu/internal/admin"
	"convgpu/internal/asyncop"
	"convgpu/internal/cluster"
	"convgpu/internal/container"
	"convgpu/internal/core"
	"convgpu/internal/daemon"
	"convgpu/internal/gpu"
	"convgpu/internal/ipc"
	"convgpu/internal/nvdocker"
	"convgpu/internal/obs"
	"convgpu/internal/plugin"
	"convgpu/internal/policy"
	"convgpu/internal/wal"
)

// Observability is the stack's runtime telemetry bundle: per-algorithm
// event counters, latency histograms, scrape-time gauges and the event
// trace ring. Reach it with Stack.Observability; Stack.AdminHandler
// serves it over HTTP.
type Observability = obs.Observability

// Operation is one admin-plane operation: a mutating verb (drain,
// revive, failover, compact, snapshot) submitted asynchronously and
// polled by ID until its status reaches completed or failed.
type Operation = asyncop.Operation

// SessionPage is one page of the daemon's session listing, ordered by
// container ID with a cursor for the next page.
type SessionPage = daemon.SessionPage

// SessionEntry is one registered session in a SessionPage.
type SessionEntry = daemon.SessionEntry

// WALStats reports the write-ahead log's counters (segments, sizes,
// sequences, sync totals).
type WALStats = wal.Stats

// Stack is the assembled ConVGPU middleware: simulated GPU + CUDA
// runtime, scheduler core, scheduler daemon over real UNIX sockets,
// container engine, volume plugin and the customized nvidia-docker.
//
// Build it with New, bring it up with Start, and launch containers with
// Run/Create. Every method that performs I/O takes a context as its
// first argument; cancellation propagates into the control channel's
// dial/backoff and per-call deadlines.
type Stack struct {
	cfg    stackConfig
	device *gpu.Device
	state  core.Scheduler
	clus   *cluster.Cluster // non-nil under WithNodes
	obs    *obs.Observability

	mu      sync.Mutex
	started bool
	closed  bool
	wal     *wal.Log
	daemon  *daemon.Daemon
	engine  *container.Engine
	plugin  *plugin.Plugin
	nv      *nvdocker.NVDocker
	ctl     *ipc.Reconnector
	tempdir string
}

// New assembles an unstarted Stack from functional options: the device,
// scheduler core and telemetry exist after New; sockets, directories
// and the daemon only after Start. Zero options give the paper's
// defaults (5 GiB K20m, FIFO redistribution).
func New(options ...Option) (*Stack, error) {
	cfg := defaultStackConfig()
	for _, o := range options {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.walSync != "" {
		if cfg.walDir == "" {
			return nil, fmt.Errorf("convgpu: WithWALSync requires WithWAL")
		}
		if _, _, err := wal.ParseSyncPolicy(cfg.walSync); err != nil {
			return nil, fmt.Errorf("convgpu: WithWALSync: %w", err)
		}
	}

	props := gpu.K20m()
	if cfg.gpuProps != nil {
		props = *cfg.gpuProps
	}
	props.TotalGlobalMem = cfg.capacity

	var gpuOpts []gpu.Option
	if cfg.latency {
		gpuOpts = append(gpuOpts, gpu.WithLatency(gpu.PaperLatency(), nil))
	}

	// One assembly for every topology (policy.NewScheduler): a cluster
	// under WithNodes, a multi-device backend under WithDevices, else the
	// paper's single core — with the per-device settings in force on all.
	state, err := policy.NewScheduler(policy.Spec{
		Nodes:    cfg.nodes,
		Devices:  cfg.devices,
		Capacity: cfg.capacity,
		Wake:     cfg.algorithm,
		Place:    cfg.placement,
		Strategy: cfg.nodeStrategy,
		Seed:     cfg.algorithmSeed,
		Device: core.Config{
			FaultTolerant:    cfg.faultTolerant,
			PersistentGrants: cfg.persistentGrants,
		},
	})
	if err != nil {
		return nil, err
	}
	clus, _ := state.(*cluster.Cluster)

	o := cfg.obs
	if o == nil {
		o = obs.New(obs.Config{Algorithm: cfg.algorithm, TraceCapacity: cfg.traceCapacity})
	}

	return &Stack{
		cfg:    cfg,
		device: gpu.New(props, gpuOpts...),
		state:  state,
		clus:   clus,
		obs:    o,
	}, nil
}

// Start brings the stack up: base directory, scheduler daemon on its
// control socket, container engine, plugin and nvidia-docker wiring.
// The context bounds the initial control-channel dial. Start is
// idempotent once it has succeeded.
func (s *Stack) Start(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("convgpu: stack closed")
	}
	if s.started {
		return nil
	}

	baseDir := s.cfg.baseDir
	if baseDir == "" {
		dir, err := os.MkdirTemp("", "convgpu")
		if err != nil {
			return fmt.Errorf("convgpu: tempdir: %w", err)
		}
		s.tempdir = dir
		baseDir = dir
	}

	fail := func(err error) error {
		s.stopLocked()
		return err
	}

	if s.cfg.walDir != "" {
		mode, interval, err := wal.ParseSyncPolicy(s.cfg.walSync)
		if err != nil {
			return fail(fmt.Errorf("convgpu: wal sync policy: %w", err))
		}
		s.wal, err = wal.Open(wal.Options{Dir: s.cfg.walDir, Sync: mode, SyncInterval: interval})
		if err != nil {
			return fail(fmt.Errorf("convgpu: open wal: %w", err))
		}
	}

	var err error
	s.daemon, err = daemon.Start(daemon.Config{
		BaseDir: baseDir,
		Core:    s.state,
		Lease:   s.cfg.lease,
		Obs:     s.obs,
		WAL:     s.wal,
		Tenants: s.cfg.tenants,
	})
	if err != nil {
		return fail(err)
	}
	if s.clus != nil && s.cfg.nodeHealth > 0 {
		// A nil probe treats every node as healthy: the loop auto-revives
		// down nodes and keeps the obs gauges live, while drain/revive
		// stay manual verbs. Real deployments hook a liveness RPC here.
		if err := s.clus.StartHealth(cluster.HealthConfig{Interval: s.cfg.nodeHealth}); err != nil {
			return fail(err)
		}
	}
	s.engine, err = container.NewEngine(container.Config{
		Device:        s.device,
		CreateLatency: s.cfg.createLatency,
	})
	if err != nil {
		return fail(err)
	}
	// The control channel is a Reconnector: callers' contexts propagate
	// into its dial/backoff, WithCallTimeout bounds the non-blocking
	// message types, and its round trips/redials feed the telemetry.
	// Each published connection offers the binary codec, like every
	// other channel (CONVGPU_WIRE_JSON pins the process to JSON).
	wire := &ipc.WireStats{}
	ctl := ipc.NewReconnector(ipc.ReconnectConfig{
		Network:     "unix",
		Addr:        s.daemon.ControlSocket(),
		CallTimeout: s.cfg.callTimeout,
		RTT:         s.obs.ControlRTT,
		Reconnects:  s.obs.Reconnects,
		Wire:        wire,
	})
	s.ctl = ctl
	s.obs.BindWire("client", wire, func() int64 { return ctl.InFlight() })
	if _, err = s.ctl.Connect(ctx); err != nil {
		return fail(fmt.Errorf("convgpu: %w: %v", ErrDaemonUnavailable, err))
	}
	s.plugin = plugin.New(s.ctl)
	s.nv = nvdocker.New(s.engine, s.ctl, s.plugin)
	s.started = true
	return nil
}

// stopLocked tears down whatever Start brought up. Caller holds s.mu.
func (s *Stack) stopLocked() {
	if s.ctl != nil {
		s.ctl.Close()
		s.ctl = nil
	}
	if s.clus != nil {
		s.clus.StopHealth() // no-op when the loop never started
	}
	if s.daemon != nil {
		s.daemon.Close()
		s.daemon = nil
	}
	if s.wal != nil {
		// After the daemon: its shutdown may still append records.
		s.wal.Close()
		s.wal = nil
	}
	if s.tempdir != "" {
		os.RemoveAll(s.tempdir)
		s.tempdir = ""
	}
	s.started = false
}

// Close shuts the stack down: control channel, daemon, sockets, and the
// temporary base directory if the stack created one. Idempotent.
func (s *Stack) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.stopLocked()
	return nil
}

// runtime returns the started nvidia-docker wiring, or ErrNotStarted.
func (s *Stack) runtime() (*nvdocker.NVDocker, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started {
		return nil, ErrNotStarted
	}
	return s.nv, nil
}

// Run launches a container through the customized nvidia-docker: the
// full paper flow (limit resolution, registration, wrapper injection,
// exit detection). The context bounds the scheduler registration.
func (s *Stack) Run(ctx context.Context, opts RunOptions) (*Container, error) {
	nv, err := s.runtime()
	if err != nil {
		return nil, err
	}
	return nv.Run(ctx, opts)
}

// Create is Run without starting the container.
func (s *Stack) Create(ctx context.Context, opts RunOptions) (*Container, error) {
	nv, err := s.runtime()
	if err != nil {
		return nil, err
	}
	return nv.Create(ctx, opts)
}

// Snapshot reports the scheduler's per-container state.
func (s *Stack) Snapshot() []SchedulerInfo { return s.state.Snapshot() }

// PoolFree reports unassigned GPU memory.
func (s *Stack) PoolFree() Size { return s.state.PoolFree() }

// Algorithm returns the redistribution algorithm's name.
func (s *Stack) Algorithm() string { return s.state.AlgorithmName() }

// Devices reports a live summary of every device the stack serves: one
// entry for a default stack, one per device under WithDevices.
func (s *Stack) Devices() []DeviceInfo { return s.state.Devices() }

// Placement reports the device a registered container was assigned.
func (s *Stack) Placement(containerID string) (int, error) {
	return s.state.Placement(core.ContainerID(containerID))
}

// Device exposes the simulated GPU (e.g. for device-view assertions).
func (s *Stack) Device() *gpu.Device { return s.device }

// Observability exposes the stack's telemetry bundle: counters,
// histograms, gauges and the event trace.
func (s *Stack) Observability() *Observability { return s.obs }

// ControlSocket returns the scheduler daemon's control socket path, or
// "" before Start.
func (s *Stack) ControlSocket() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started {
		return ""
	}
	return s.daemon.ControlSocket()
}

// running returns the started daemon, or ErrNotStarted. The getters
// below read its documents in process — the same producers /v1 serves
// (AdminHandler) — so no socket and no context deadline is involved.
func (s *Stack) running() (*daemon.Daemon, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started {
		return nil, ErrNotStarted
	}
	return s.daemon, nil
}

// Nodes reports the cluster membership view — one NodeStatus per node
// with its state (up, suspect, down, draining), capacity, free memory
// and failover count. It requires a cluster stack (WithNodes); a
// single-node stack answers with an error.
func (s *Stack) Nodes(ctx context.Context) ([]NodeStatus, error) {
	d, err := s.running()
	if err != nil {
		return nil, err
	}
	return d.NodeStatuses()
}

// Tenants reports the per-tenant usage rollup: one TenantUsage per
// named tenant with its configured attributes (weight, priority, quota,
// guarantee) and live scheduling state (containers, grants, usage,
// pending requests), sorted by name. Containers of the default tenant
// are not listed.
func (s *Stack) Tenants(ctx context.Context) ([]TenantUsage, error) {
	d, err := s.running()
	if err != nil {
		return nil, err
	}
	return d.Tenants(), nil
}

// DrainNode makes a cluster node refuse new containers while its
// existing grants complete — the graceful half of the failure-domain
// surface. Draining a node that is already down fails with ErrNodeDown.
func (s *Stack) DrainNode(ctx context.Context, node int) error {
	d, err := s.running()
	if err != nil {
		return err
	}
	return d.DrainNode(node)
}

// ReviveNode returns a drained or down cluster node to service. A down
// node's slot holds a fresh, empty scheduler (installed at failover),
// so revival is indistinguishable from a clean boot.
func (s *Stack) ReviveNode(ctx context.Context, node int) error {
	d, err := s.running()
	if err != nil {
		return err
	}
	return d.ReviveNode(node)
}

// Stats returns the daemon's metric snapshot as a JSON document
// (obs.StatsPayload).
func (s *Stack) Stats(ctx context.Context) ([]byte, error) {
	d, err := s.running()
	if err != nil {
		return nil, err
	}
	return d.Obs().StatsJSON()
}

// Trace returns the daemon's whole retained event trace as a JSON
// document (obs.TraceDump). An empty containerID returns every
// container's events.
func (s *Stack) Trace(ctx context.Context, containerID string) ([]byte, error) {
	d, err := s.running()
	if err != nil {
		return nil, err
	}
	return d.Obs().Tracer().Dump(containerID)
}

// TracePage returns one bounded page of the event trace: up to limit
// events with Seq > after (limit <= 0 means no bound). The returned
// dump's next_after/more fields drive the next call.
func (s *Stack) TracePage(ctx context.Context, containerID string, after uint64, limit int) ([]byte, error) {
	d, err := s.running()
	if err != nil {
		return nil, err
	}
	return d.Obs().Tracer().DumpPage(containerID, after, limit)
}

// Sessions returns one page of the daemon's registered session listing,
// ordered by container ID: entries with ID > after, at most limit of
// them (0 = the daemon's page cap), read off the live core.
func (s *Stack) Sessions(ctx context.Context, after string, limit int) (SessionPage, error) {
	d, err := s.running()
	if err != nil {
		return SessionPage{}, err
	}
	return d.Sessions(after, limit), nil
}

// Operations returns the daemon's retained admin operations, newest
// first.
func (s *Stack) Operations(ctx context.Context) ([]Operation, error) {
	d, err := s.running()
	if err != nil {
		return nil, err
	}
	return d.Ops().List(), nil
}

// Operation polls one admin operation by ID.
func (s *Stack) Operation(ctx context.Context, id string) (Operation, error) {
	d, err := s.running()
	if err != nil {
		return Operation{}, err
	}
	op, ok := d.Ops().Get(id)
	if !ok {
		return Operation{}, fmt.Errorf("convgpu: unknown operation %q", id)
	}
	return op, nil
}

// WALStats reports the write-ahead log's counters — the log WithWAL
// names, else the daemon's own under the base directory; ok is false
// only before Start.
func (s *Stack) WALStats() (WALStats, bool) {
	d, err := s.running()
	if err != nil {
		return WALStats{}, false
	}
	return d.WALStats(), true
}

// AdminHandler returns the versioned HTTP admin plane for the running
// stack: read endpoints and async mutating verbs under /v1 (see
// internal/admin), with request-ID correlation and per-client
// throttling — the one surface through which the documents the getters
// above return leave the process. Fails before Start.
func (s *Stack) AdminHandler() (http.Handler, error) {
	d, err := s.running()
	if err != nil {
		return nil, err
	}
	return admin.New(admin.Config{Daemon: d})
}

// Dump returns the daemon's full state dump: snapshot, metrics and the
// trace tail in one JSON document.
func (s *Stack) Dump(ctx context.Context) ([]byte, error) {
	d, err := s.running()
	if err != nil {
		return nil, err
	}
	return d.DumpJSON(0)
}

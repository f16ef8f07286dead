// Command convgpu-scheduler runs the GPU memory scheduler as a host
// daemon — the standalone Go program of the paper's §III-D. It owns the
// control socket that the customized nvidia-docker (registration) and
// nvidia-docker-plugin (close signals) connect to, and one socket per
// registered container for the wrapper modules.
//
// Usage:
//
//	convgpu-scheduler -basedir /var/run/convgpu -capacity 5GiB -algorithm bestfit
//
// -algorithm, -placement and -strategy resolve through the policy tables
// (internal/policy): the paper's four redistribution algorithms keep
// their historical names and short aliases, and the tenant-aware
// policies (fairshare, quota, priority; placement fragaware) are
// selected the same way.
//
// With -tenant NAME[:WEIGHT[:PRIORITY[:QUOTA[:GUARANTEE]]]] (repeatable)
// the daemon provisions named tenants: registrations carrying the
// tenant name on the wire bind to the configured attributes, which the
// tenant-aware policies consume (weights for fairshare, priorities for
// priority preemption, quota/guarantee for the quota policy and the
// admission clamps).
//
// With -devices N (N > 1) the daemon serves N GPUs from one control
// socket: -capacity is read per device and -placement picks the device
// placement policy for new containers (least-loaded by default).
//
// With -nodes M (M > 1) the daemon fronts an M-node cluster of -devices
// GPUs each: -strategy picks the node placement strategy and
// -node-health (a probe interval) starts the membership health loop,
// which declares unresponsive nodes down and fails their containers
// over to survivors. Nodes are inspected and drained / revived at
// runtime with cmd/convgpu-stats (nodes | drain | revive).
//
// Every session-changing event is appended to a write-ahead log before
// it is acknowledged, and a restarted daemon recovers by loading the
// newest snapshot and replaying the log tail. Without -wal-dir that log
// is the daemon's own under <basedir>/wal, never fsynced: it survives a
// daemon crash, not a host crash. With -wal-dir it lives where the
// operator says and is fsynced per -fsync (default: every record).
//
// The daemon prints the control socket path on startup and, with
// -status, a periodic snapshot of per-container grants and usage. The
// control socket speaks only the paper's protocol (register, close);
// everything an operator asks goes through the versioned admin API,
// always served on the UNIX socket <basedir>/admin.sock (no open port,
// only access to the path; cmd/convgpu-stats is its CLI) and, with
// -http, on a TCP address as well: GET /v1/metrics (Prometheus text),
// /v1/stats, /v1/trace (cursor-paged JSON), /v1/dump, /v1/sessions,
// /v1/tenants, /v1/nodes, /v1/wal and /v1/operations, plus the async
// mutating verbs POST /v1/nodes/{n}/drain|revive|failover and POST
// /v1/wal/compact|snapshot, which answer 202 with an operation to poll
// at /v1/operations/{id}; /debug/vars and /debug/pprof are served
// beside it.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"convgpu/internal/admin"
	"convgpu/internal/bytesize"
	"convgpu/internal/cluster"
	"convgpu/internal/core"
	"convgpu/internal/daemon"
	"convgpu/internal/multigpu"
	"convgpu/internal/obs"
	"convgpu/internal/policy"
	"convgpu/internal/wal"
)

// tenantFlag collects repeatable -tenant definitions:
// NAME[:WEIGHT[:PRIORITY[:QUOTA[:GUARANTEE]]]], trailing parts optional.
type tenantFlag struct{ defs []core.Tenant }

func (f *tenantFlag) String() string {
	parts := make([]string, len(f.defs))
	for i, t := range f.defs {
		parts[i] = t.Name
	}
	return strings.Join(parts, ",")
}

func (f *tenantFlag) Set(s string) error {
	parts := strings.Split(s, ":")
	if parts[0] == "" {
		return fmt.Errorf("tenant definition %q has no name", s)
	}
	if len(parts) > 5 {
		return fmt.Errorf("tenant definition %q has %d fields, want at most name:weight:priority:quota:guarantee", s, len(parts))
	}
	t := core.Tenant{Name: parts[0]}
	var err error
	if len(parts) > 1 && parts[1] != "" {
		if t.Weight, err = strconv.Atoi(parts[1]); err != nil {
			return fmt.Errorf("tenant %s: weight %q: %v", t.Name, parts[1], err)
		}
	}
	if len(parts) > 2 && parts[2] != "" {
		if t.Priority, err = strconv.Atoi(parts[2]); err != nil {
			return fmt.Errorf("tenant %s: priority %q: %v", t.Name, parts[2], err)
		}
	}
	if len(parts) > 3 && parts[3] != "" {
		if t.Quota, err = bytesize.Parse(parts[3]); err != nil {
			return fmt.Errorf("tenant %s: quota %q: %v", t.Name, parts[3], err)
		}
	}
	if len(parts) > 4 && parts[4] != "" {
		if t.Guarantee, err = bytesize.Parse(parts[4]); err != nil {
			return fmt.Errorf("tenant %s: guarantee %q: %v", t.Name, parts[4], err)
		}
	}
	f.defs = append(f.defs, t)
	return nil
}

func main() {
	var tenants tenantFlag
	var (
		baseDir   = flag.String("basedir", "", "directory for the control socket and per-container directories (required)")
		capacity  = flag.String("capacity", "5GiB", "schedulable GPU memory")
		algorithm = flag.String("algorithm", core.AlgFIFO, "wake-order policy: "+strings.Join(policy.WakeNames(), "|"))
		devices   = flag.Int("devices", 1, "number of GPUs to serve; -capacity is per device when > 1")
		placement = flag.String("placement", multigpu.PolicyLeastLoaded, "device placement policy: "+strings.Join(policy.PlaceNames(), "|")+" (multi-device only)")
		nodes     = flag.Int("nodes", 1, "number of cluster nodes, each with -devices GPUs; > 1 enables the cluster tier")
		strategy  = flag.String("strategy", cluster.StrategySpread, "node placement strategy: "+strings.Join(policy.StrategyNames(), "|")+" (cluster only)")
		health    = flag.Duration("node-health", 0, "probe nodes at this interval, failing over unresponsive ones (0 = off; cluster only)")
		seed      = flag.Int64("seed", 1, "seed for the random algorithm")
		status    = flag.Duration("status", 0, "print a scheduler snapshot at this interval (0 = off)")
		rescue    = flag.Bool("fault-tolerant", false, "enable the rescue pass of the authors' prior fault-tolerance study")
		lease     = flag.Duration("lease", 0, "reap containers silent for this long (0 = no leasing)")
		httpAddr  = flag.String("http", "", "also serve the /v1 admin API (plus /debug/*) on this TCP address (e.g. :9090; empty = admin.sock only)")
		traceCap  = flag.Int("trace-capacity", 0, "event-trace ring capacity (0 = default, negative = disabled)")
		walDir    = flag.String("wal-dir", "", "write-ahead log directory, fsynced per -fsync (empty = <basedir>/wal, never fsynced: survives a daemon restart, not a host crash)")
		fsync     = flag.String("fsync", "always", "-wal-dir's fsync policy: always (every session-changing record synced before it is acknowledged) | none | a duration like 50ms (group commit, at most that much lost)")
	)
	flag.Var(&tenants, "tenant", "provision a named tenant: NAME[:WEIGHT[:PRIORITY[:QUOTA[:GUARANTEE]]]] (repeatable)")
	flag.Parse()
	if *baseDir == "" {
		fmt.Fprintln(os.Stderr, "convgpu-scheduler: -basedir is required")
		flag.Usage()
		os.Exit(2)
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "fsync" && *walDir == "" {
			log.Fatalf("convgpu-scheduler: -fsync requires -wal-dir (the log under -basedir is never fsynced)")
		}
	})
	cap, err := bytesize.Parse(*capacity)
	if err != nil {
		log.Fatalf("convgpu-scheduler: -capacity: %v", err)
	}
	// Resolve every policy name up front: legacy spellings and aliases
	// map to their canonical names, unknown ones fail with the full list
	// before anything is built.
	algName, ok := policy.ResolveWake(*algorithm)
	if !ok {
		log.Fatalf("convgpu-scheduler: -algorithm: unknown policy %q (have %s)",
			*algorithm, strings.Join(policy.WakeNames(), "|"))
	}
	placeName, ok := policy.ResolvePlace(*placement)
	if !ok {
		log.Fatalf("convgpu-scheduler: -placement: unknown policy %q (have %s)",
			*placement, strings.Join(policy.PlaceNames(), "|"))
	}
	if _, err := policy.NewStrategy(*strategy, policy.Config{}); err != nil {
		log.Fatalf("convgpu-scheduler: -strategy: %v", err)
	}
	st, err := policy.NewScheduler(policy.Spec{
		Nodes:    *nodes,
		Devices:  *devices,
		Capacity: cap,
		Wake:     algName,
		Place:    placeName,
		Strategy: *strategy,
		Seed:     *seed,
		Device:   core.Config{FaultTolerant: *rescue},
	})
	if err != nil {
		log.Fatalf("convgpu-scheduler: %v", err)
	}
	clus, _ := st.(*cluster.Cluster)
	bundle := obs.New(obs.Config{Algorithm: algName, TraceCapacity: *traceCap})
	var walLog *wal.Log
	if *walDir != "" {
		mode, interval, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			log.Fatalf("convgpu-scheduler: -fsync: %v", err)
		}
		walLog, err = wal.Open(wal.Options{Dir: *walDir, Sync: mode, SyncInterval: interval, Logf: log.Printf})
		if err != nil {
			log.Fatalf("convgpu-scheduler: -wal-dir: %v", err)
		}
		defer walLog.Close()
	}
	d, err := daemon.Start(daemon.Config{BaseDir: *baseDir, Core: st, Lease: *lease, Obs: bundle, Logf: log.Printf, WAL: walLog, Tenants: tenants.defs})
	if err != nil {
		log.Fatalf("convgpu-scheduler: %v", err)
	}
	defer d.Close()
	if clus != nil && *health > 0 {
		// A nil probe treats every node as healthy; real deployments hook
		// a liveness RPC here. The loop still auto-revives down nodes and
		// drives the obs gauges, and drain/revive stay manual verbs.
		if err := clus.StartHealth(cluster.HealthConfig{Interval: *health}); err != nil {
			log.Fatalf("convgpu-scheduler: -node-health: %v", err)
		}
		defer clus.StopHealth()
	}
	if clus != nil {
		log.Printf("GPU memory scheduler up: nodes=%d gpus/node=%d capacity=%v/GPU algorithm=%s strategy=%s control=%s",
			*nodes, *devices, cap, algName, clus.StrategyName(), d.ControlSocket())
	} else if *devices > 1 {
		log.Printf("GPU memory scheduler up: devices=%d capacity=%v/device algorithm=%s placement=%s control=%s",
			*devices, cap, algName, placeName, d.ControlSocket())
	} else {
		log.Printf("GPU memory scheduler up: capacity=%v algorithm=%s control=%s",
			cap, algName, d.ControlSocket())
	}

	// The admin plane is always served on a UNIX socket beside the
	// control socket, and on -http as well when asked: one handler, so
	// request IDs, operations and the throttle are shared.
	handler, err := admin.New(admin.Config{Daemon: d})
	if err != nil {
		log.Fatalf("convgpu-scheduler: admin API: %v", err)
	}
	srv := &http.Server{Handler: handler}
	defer srv.Close() // closes every listener; the UNIX one unlinks its file
	serve := func(network, addr string) net.Addr {
		ln, err := net.Listen(network, addr)
		if err != nil {
			log.Fatalf("convgpu-scheduler: admin API on %s: %v", addr, err)
		}
		go func() {
			if err := srv.Serve(ln); err != http.ErrServerClosed {
				log.Printf("convgpu-scheduler: admin API on %s: %v", addr, err)
			}
		}()
		return ln.Addr()
	}
	// daemon.Start took the control socket over, which proved no live
	// daemon owns this base directory: a socket file here is a dead run's.
	adminSock := filepath.Join(*baseDir, admin.SocketName)
	os.Remove(adminSock)
	log.Printf("admin API up: %s", serve("unix", adminSock))
	if *httpAddr != "" {
		log.Printf("admin API up: http://%s/v1/metrics", serve("tcp", *httpAddr))
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	var tick <-chan time.Time
	if *status > 0 {
		t := time.NewTicker(*status)
		defer t.Stop()
		tick = t.C
	}
	var lastEvent uint64
	for {
		select {
		case <-stop:
			log.Printf("shutting down")
			return
		case <-tick:
			snap := st.Snapshot()
			log.Printf("pool free: %v, containers: %d", st.PoolFree(), len(snap))
			if clus != nil {
				for _, n := range clus.NodeStatuses() {
					log.Printf("  node %d (%s): state=%s free=%v containers=%d failovers=%d",
						n.Index, n.Name, n.State, n.Free, n.Containers, n.Failovers)
				}
			}
			if *devices > 1 {
				for _, dev := range st.Devices() {
					log.Printf("  device %d: capacity=%v free=%v containers=%d",
						dev.Index, dev.Capacity, dev.PoolFree, dev.Containers)
				}
			}
			for _, t := range st.Tenants() {
				log.Printf("  tenant %-12s weight=%d priority=%d quota=%v guarantee=%v containers=%d grant=%v used=%v pending=%d",
					t.Name, t.Weight, t.Priority, t.Quota, t.Guarantee, t.Containers, t.Grant, t.Used, t.Pending)
			}
			for _, c := range snap {
				state := "running"
				if c.Suspended {
					state = fmt.Sprintf("suspended (%d pending)", c.Pending)
				}
				dev := ""
				if *devices > 1 {
					if idx, err := st.Placement(c.ID); err == nil {
						dev = fmt.Sprintf(" device=%d", idx)
					}
				}
				log.Printf("  %-20s limit=%-8v grant=%-8v used=%-8v %s%s",
					c.ID, c.Limit, c.Grant, c.Used, state, dev)
			}
			events, _ := bundle.Tracer().Page("", lastEvent, 0)
			for _, e := range events {
				log.Printf("  event %s", e)
				lastEvent = e.Seq
			}
		}
	}
}

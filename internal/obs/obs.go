package obs

import (
	"encoding/json"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"convgpu/internal/core"
	"convgpu/internal/wal"
)

// Metric names exported by an Observability bundle. DESIGN.md §9
// documents the full schema; these constants keep daemon, facade and
// tests referring to one spelling.
const (
	MetricEvents            = "convgpu_scheduler_events_total"
	MetricPoolFree          = "convgpu_pool_free_bytes"
	MetricDevicePoolFree    = "convgpu_device_pool_free_bytes"
	MetricDeviceContainers  = "convgpu_device_containers"
	MetricContainers        = "convgpu_containers"
	MetricSuspended         = "convgpu_containers_suspended"
	MetricPending           = "convgpu_pending_requests"
	MetricHandlerLatency    = "convgpu_ipc_handler_seconds"
	MetricSuspendWait       = "convgpu_suspend_wait_seconds"
	MetricRTT               = "convgpu_ipc_rtt_seconds"
	MetricReconnects        = "convgpu_ipc_reconnects_total"
	MetricLeaseExpiries     = "convgpu_lease_expiries_total"
	MetricSessionsDiscarded = "convgpu_sessions_discarded_total"
	MetricWireFrames        = "convgpu_wire_frames_total"
	MetricWireNegotiations  = "convgpu_wire_negotiations_total"
	MetricWireFrameErrors   = "convgpu_wire_frame_errors_total"
	MetricPipelineDepth     = "convgpu_ipc_pipeline_depth"
	MetricNodeState         = "convgpu_node_state"
	MetricNodeFree          = "convgpu_node_free_bytes"
	MetricNodeContainers    = "convgpu_node_containers"
	MetricNodeFailovers     = "convgpu_node_failovers_total"
	MetricFailovers         = "convgpu_failovers_total"
	MetricTicketsMigrated   = "convgpu_failover_tickets_migrated_total"
	MetricTicketsEvicted    = "convgpu_failover_tickets_evicted_total"
	MetricMigrationLatency  = "convgpu_failover_migration_seconds"
	MetricWALSegments       = "convgpu_wal_segments"
	MetricWALSizeBytes      = "convgpu_wal_size_bytes"
	MetricWALLastSeq        = "convgpu_wal_last_seq"
	MetricWALSessions       = "convgpu_wal_sessions"
	MetricWALAppends        = "convgpu_wal_appends_total"
	MetricWALSyncs          = "convgpu_wal_fsyncs_total"
	MetricWALFsyncLatency   = "convgpu_wal_fsync_seconds"
	MetricTenantContainers  = "convgpu_tenant_containers"
	MetricTenantSuspended   = "convgpu_tenant_containers_suspended"
	MetricTenantPending     = "convgpu_tenant_pending_requests"
	MetricTenantGrant       = "convgpu_tenant_grant_bytes"
	MetricTenantUsed        = "convgpu_tenant_used_bytes"
	MetricTenantQuota       = "convgpu_tenant_quota_bytes"
	MetricTenantGuarantee   = "convgpu_tenant_guarantee_bytes"
	MetricAdmitLatency      = "convgpu_admit_latency_seconds"
	MetricDeadlineMet       = "convgpu_deadline_met_total"
	MetricDeadlineMissed    = "convgpu_deadline_missed_total"
	MetricGoodput           = "convgpu_goodput_milli_per_sec"
)

// Config parameterizes an Observability bundle.
type Config struct {
	// Algorithm labels every per-algorithm series (e.g. "fifo",
	// "bestfit"). Empty is rendered as "unknown".
	Algorithm string
	// TraceCapacity sets the trace ring size (DefaultTraceCapacity when
	// 0, retention disabled when negative).
	TraceCapacity int
}

// Observability bundles the scheduler's runtime telemetry: one counter
// per core event kind (labelled by algorithm), latency histograms for
// the daemon's two sockets, suspension waits, control-channel round
// trips, and the failure-domain counters from the lease/reconnect
// machinery, plus the event trace ring. All record paths are atomic or
// leaf-mutex only — safe inside the scheduler's 0 allocs/op hot path.
type Observability struct {
	reg    *Registry
	tracer *Tracer
	algo   string

	// byKind has one counter per core.EventKind, indexed by the kind
	// itself so the observer path is a single array load + atomic add.
	byKind [core.NumEventKinds]*Counter

	// HandlerContainer and HandlerControl time the daemon's message
	// handlers (decode→respond) per socket kind.
	HandlerContainer *Histogram
	HandlerControl   *Histogram
	// SuspendWait times parked allocations from suspension to release
	// (admit, drop, or shutdown).
	SuspendWait *Histogram
	// ControlRTT times facade→daemon control calls end to end.
	ControlRTT *Histogram
	// Reconnects counts control-channel redials; LeaseExpiries counts
	// sessions reaped by the daemon's lease loop.
	Reconnects    *Counter
	LeaseExpiries *Counter
	// SessionsDiscarded counts persisted sessions the daemon threw away
	// during restart recovery (corrupt JSON, unservable device, ...).
	SessionsDiscarded *Counter
	// Failovers counts node failovers the backend executed;
	// TicketsMigrated / TicketsEvicted account for every parked ticket a
	// failover touched (migrated-or-admitted vs observably rejected), and
	// MigrationLatency times each failover end to end.
	Failovers        *Counter
	TicketsMigrated  *Counter
	TicketsEvicted   *Counter
	MigrationLatency *Histogram
	// AdmitLatency times every admitted allocation request from the
	// requester's point of view: zero for requests accepted in place,
	// the park-to-release wait for suspended ones. The event hook feeds
	// it from accept and resume records, so the histogram covers
	// immediate accepts the SuspendWait series never sees.
	AdmitLatency *Histogram
	// DeadlineMet / DeadlineMissed count per-request SLO outcomes as a
	// deadline-aware driver (the open-loop load harness, an
	// inference-serving shim) reports them via ObserveDeadline.
	DeadlineMet    *Counter
	DeadlineMissed *Counter

	// goodputMilli holds the most recent goodput reading in
	// milli-requests per second (gauges are integral; 1/1000 resolution
	// keeps sub-1/s rates visible). Set via SetGoodput.
	goodputMilli atomic.Int64

	// devMu guards suspendByDev, the per-device suspend-wait series
	// BindCore registers for each device the bound backend serves.
	devMu        sync.RWMutex
	suspendByDev map[int]*Histogram

	// tenantMu guards the per-tenant gauge machinery: tenants appear at
	// registration time, not bind time, so their series are registered
	// lazily at each export against the bound backend.
	tenantMu   sync.Mutex
	tenantSrc  core.Scheduler
	tenantSeen map[string]bool
}

// New builds an Observability bundle with every series registered.
func New(cfg Config) *Observability {
	algo := cfg.Algorithm
	if algo == "" {
		algo = "unknown"
	}
	reg := NewRegistry()
	o := &Observability{
		reg:    reg,
		tracer: NewTracer(cfg.TraceCapacity),
		algo:   algo,
	}
	for k := 0; k < core.NumEventKinds; k++ {
		o.byKind[k] = reg.NewCounter(MetricEvents,
			"Scheduler events by kind (admits=accept+resume, suspends, rejects, frees, ...).",
			Labels{"algorithm": algo, "kind": core.EventKind(k).String()})
	}
	o.HandlerContainer = reg.NewHistogram(MetricHandlerLatency,
		"Daemon handler latency from decode to response.",
		Labels{"socket": "container"})
	o.HandlerControl = reg.NewHistogram(MetricHandlerLatency,
		"Daemon handler latency from decode to response.",
		Labels{"socket": "control"})
	o.SuspendWait = reg.NewHistogram(MetricSuspendWait,
		"Time allocations spend suspended before release.", nil)
	o.ControlRTT = reg.NewHistogram(MetricRTT,
		"Control-channel call round-trip time.", Labels{"peer": "control"})
	o.Reconnects = reg.NewCounter(MetricReconnects,
		"Control-channel reconnect attempts that produced a fresh connection.", nil)
	o.LeaseExpiries = reg.NewCounter(MetricLeaseExpiries,
		"Container sessions reaped after their lease expired.", nil)
	o.SessionsDiscarded = reg.NewCounter(MetricSessionsDiscarded,
		"Persisted sessions discarded during daemon restart recovery.", nil)
	o.Failovers = reg.NewCounter(MetricFailovers,
		"Node failovers executed (containers migrated off a dead node).", nil)
	o.TicketsMigrated = reg.NewCounter(MetricTicketsMigrated,
		"Parked tickets carried through a node failover (re-parked or admitted).", nil)
	o.TicketsEvicted = reg.NewCounter(MetricTicketsEvicted,
		"Parked tickets observably rejected because no surviving node had capacity.", nil)
	o.MigrationLatency = reg.NewHistogram(MetricMigrationLatency,
		"End-to-end latency of one node failover (capture to report).", nil)
	o.AdmitLatency = reg.NewHistogram(MetricAdmitLatency,
		"Time from allocation request to admission (0 for in-place accepts).", nil)
	o.DeadlineMet = reg.NewCounter(MetricDeadlineMet,
		"Requests whose per-request deadline was met, as reported by a deadline-aware driver.", nil)
	o.DeadlineMissed = reg.NewCounter(MetricDeadlineMissed,
		"Requests whose per-request deadline was missed, as reported by a deadline-aware driver.", nil)
	reg.GaugeFunc(MetricGoodput,
		"Most recent goodput reading (deadline-met completions), in milli-requests per second.", nil,
		func() int64 { return o.goodputMilli.Load() })
	return o
}

// ObserveDeadline counts one per-request SLO outcome.
func (o *Observability) ObserveDeadline(met bool) {
	if met {
		o.DeadlineMet.Inc()
	} else {
		o.DeadlineMissed.Inc()
	}
}

// SetGoodput publishes a goodput reading (deadline-met completions per
// second) on the convgpu_goodput_milli_per_sec gauge.
func (o *Observability) SetGoodput(perSec float64) {
	o.goodputMilli.Store(int64(perSec * 1000))
}

// Registry exposes the metric registry for export. Every renderer
// (Prometheus text, the stats and dump documents) reads through here,
// so this is where the gauge series of a tenant that registered since
// the last export get added.
func (o *Observability) Registry() *Registry {
	o.refreshTenantGauges()
	return o.reg
}

// Tracer exposes the event trace ring.
func (o *Observability) Tracer() *Tracer { return o.tracer }

// Algorithm returns the label value this bundle was built with.
func (o *Observability) Algorithm() string { return o.algo }

// observeEvent is the core event hook: one atomic counter bump and one
// ring append per scheduler event, plus the admit-latency observation
// on the two admitting kinds. Runs under the scheduler's locks — no
// allocation, no locks beyond the tracer's leaf mutex.
func (o *Observability) observeEvent(e core.EventRecord) {
	k := int(e.Kind)
	if k >= 0 && k < len(o.byKind) {
		o.byKind[k].Inc()
	}
	o.tracer.Record(e.At, e.Kind.String(), string(e.Container), e.PID, int64(e.Amount), e.Device, uint64(e.Ticket))
	switch e.Kind {
	case core.EvAccept, core.EvResume:
		o.AdmitLatency.Observe(e.Waited)
	case core.EvClose:
		o.tracer.EndContainer(string(e.Container))
	}
}

// BindCore wires a scheduling backend into the bundle: installs the
// event observer and (re-)registers the scrape-time gauges over the
// live state, including one pool/container gauge pair per device the
// backend serves. Rebinding after a daemon restart replaces the gauges,
// so a long-lived bundle follows the current core.
func (o *Observability) BindCore(st core.Scheduler) {
	st.SetObserver(o.observeEvent)
	al := Labels{"algorithm": o.algo}
	o.reg.GaugeFunc(MetricPoolFree,
		"Schedulable GPU memory not granted to any container (all devices).", al,
		func() int64 { return int64(st.PoolFree()) })
	o.reg.GaugeFunc(MetricContainers,
		"Registered containers.", al,
		func() int64 { return int64(len(st.Snapshot())) })
	o.reg.GaugeFunc(MetricSuspended,
		"Containers with at least one suspended allocation.", al,
		func() int64 { return int64(st.PausedContainers()) })
	o.reg.GaugeFunc(MetricPending,
		"Suspended allocation requests across all containers.", al,
		func() int64 {
			var n int64
			for _, info := range st.Snapshot() {
				n += int64(info.Pending)
			}
			return n
		})
	o.devMu.Lock()
	if o.suspendByDev == nil {
		o.suspendByDev = make(map[int]*Histogram)
	}
	for _, d := range st.Devices() {
		index := d.Index
		dl := Labels{"algorithm": o.algo, "device": strconv.Itoa(index)}
		o.reg.GaugeFunc(MetricDevicePoolFree,
			"Schedulable memory not granted to any container on one device.", dl,
			func() int64 { return int64(deviceAt(st, index).PoolFree) })
		o.reg.GaugeFunc(MetricDeviceContainers,
			"Containers placed on one device.", dl,
			func() int64 { return int64(deviceAt(st, index).Containers) })
		if _, ok := o.suspendByDev[index]; !ok {
			o.suspendByDev[index] = o.reg.NewHistogram(MetricSuspendWait,
				"Time allocations spend suspended before release, per device.", dl)
		}
	}
	o.devMu.Unlock()
	o.BindTenants(st)
}

// BindTenants points the per-tenant gauge series at a scheduling
// backend. Named tenants appear when their first container registers,
// so series registration is deferred to export time
// (refreshTenantGauges); a tenant whose containers all closed keeps its
// series and renders zeros rather than disappearing mid-scrape.
// BindCore calls this; rebinding swaps the backend under the existing
// series.
func (o *Observability) BindTenants(st core.Scheduler) {
	o.tenantMu.Lock()
	o.tenantSrc = st
	if o.tenantSeen == nil {
		o.tenantSeen = make(map[string]bool)
	}
	o.tenantMu.Unlock()
	o.refreshTenantGauges()
}

// refreshTenantGauges registers the gauge set for any tenant that
// appeared since the last export: containers, suspended containers,
// pending requests, granted and used bytes, plus the configured quota
// and guarantee. Labelled {"tenant": name}; evaluated live at scrape
// time. Registry calls this, so the cost is paid per export, never on
// the scheduling hot path.
func (o *Observability) refreshTenantGauges() {
	o.tenantMu.Lock()
	st := o.tenantSrc
	o.tenantMu.Unlock()
	if st == nil {
		return
	}
	for _, u := range st.Tenants() {
		o.tenantMu.Lock()
		seen := o.tenantSeen[u.Name]
		o.tenantSeen[u.Name] = true
		o.tenantMu.Unlock()
		if seen {
			continue
		}
		name := u.Name
		tl := Labels{"tenant": name}
		o.reg.GaugeFunc(MetricTenantContainers,
			"Registered containers bound to one tenant.", tl,
			func() int64 { return int64(o.tenantUsage(name).Containers) })
		o.reg.GaugeFunc(MetricTenantSuspended,
			"Tenant containers with at least one suspended allocation.", tl,
			func() int64 { return int64(o.tenantUsage(name).Suspended) })
		o.reg.GaugeFunc(MetricTenantPending,
			"Suspended allocation requests across one tenant's containers.", tl,
			func() int64 { return int64(o.tenantUsage(name).Pending) })
		o.reg.GaugeFunc(MetricTenantGrant,
			"GPU memory granted to one tenant's containers.", tl,
			func() int64 { return int64(o.tenantUsage(name).Grant) })
		o.reg.GaugeFunc(MetricTenantUsed,
			"GPU memory one tenant's containers have allocated.", tl,
			func() int64 { return int64(o.tenantUsage(name).Used) })
		o.reg.GaugeFunc(MetricTenantQuota,
			"Configured hard cap on one tenant's granted memory (0 = none).", tl,
			func() int64 { return int64(o.tenantUsage(name).Quota) })
		o.reg.GaugeFunc(MetricTenantGuarantee,
			"Configured soft reservation for one tenant (0 = none).", tl,
			func() int64 { return int64(o.tenantUsage(name).Guarantee) })
	}
}

// tenantUsage re-reads one tenant's live usage at export time. A
// tenant no longer reported (every container closed) reads as zeros.
func (o *Observability) tenantUsage(name string) core.TenantUsage {
	o.tenantMu.Lock()
	st := o.tenantSrc
	o.tenantMu.Unlock()
	if st == nil {
		return core.TenantUsage{}
	}
	for _, u := range st.Tenants() {
		if u.Name == name {
			return u
		}
	}
	return core.TenantUsage{}
}

// BindMembership registers scrape-time gauges over a cluster backend's
// node membership view: one state gauge per node and state (1 when the
// node is in that state), plus per-node free capacity, container count
// and failover total. The node set is fixed at bind time (slots persist
// across failovers — a dead node's slot holds its fresh replacement).
func (o *Observability) BindMembership(m core.Membership) {
	nodes := m.NodeStatuses()
	states := []string{"up", "suspect", "down", "draining"}
	for _, n := range nodes {
		index := n.Index
		nl := Labels{"node": strconv.Itoa(index), "name": n.Name}
		for _, s := range states {
			state := s
			o.reg.GaugeFunc(MetricNodeState,
				"1 when the node is in the labelled membership state.",
				Labels{"node": strconv.Itoa(index), "name": n.Name, "state": state},
				func() int64 {
					if st := nodeAt(m, index); st.State == state {
						return 1
					}
					return 0
				})
		}
		o.reg.GaugeFunc(MetricNodeFree,
			"Schedulable memory not granted to any container on one node.", nl,
			func() int64 { return int64(nodeAt(m, index).Free) })
		o.reg.GaugeFunc(MetricNodeContainers,
			"Containers placed on one node.", nl,
			func() int64 { return int64(nodeAt(m, index).Containers) })
		o.reg.GaugeFunc(MetricNodeFailovers,
			"Times this node slot was declared down and failed over.", nl,
			func() int64 { return int64(nodeAt(m, index).Failovers) })
	}
}

// nodeAt re-reads one node's live membership status at scrape time.
func nodeAt(m core.Membership, index int) core.NodeStatus {
	for _, n := range m.NodeStatuses() {
		if n.Index == index {
			return n
		}
	}
	return core.NodeStatus{}
}

// WireCounters is the transport's frame-counter bundle (ipc.WireStats)
// as obs consumes it — an interface so the transport package never
// imports the observability layer, mirroring ipc.LatencyObserver in the
// other direction.
type WireCounters interface {
	// Frames reports frames seen for one codec (binary or JSON
	// fallback) and direction.
	Frames(binary, out bool) uint64
	// Negotiations reports completed binary-codec handshakes.
	Negotiations() uint64
	// FrameErrors reports frames that arrived but failed to decode.
	FrameErrors() uint64
}

// BindWire registers scrape-time gauges over one transport endpoint's
// wire counters: frames by codec and direction, codec negotiations, and
// decode failures, all labelled by side (the daemon binds its server
// stats as "daemon", the facade its control client as "client") so both
// ends of the wire can share one registry. pipelineDepth, when non-nil,
// is additionally exposed as the in-flight call depth gauge (the facade
// passes its control channel's InFlight). Totals are rendered at scrape
// time, so the hot path pays only the WireStats atomics.
func (o *Observability) BindWire(side string, w WireCounters, pipelineDepth func() int64) {
	for _, c := range []struct {
		codec  string
		binary bool
	}{{"binary", true}, {"json", false}} {
		for _, d := range []struct {
			dir string
			out bool
		}{{"in", false}, {"out", true}} {
			binary, out := c.binary, d.out
			o.reg.GaugeFunc(MetricWireFrames,
				"Transport frames by codec and direction.",
				Labels{"side": side, "codec": c.codec, "direction": d.dir},
				func() int64 { return int64(w.Frames(binary, out)) })
		}
	}
	o.reg.GaugeFunc(MetricWireNegotiations,
		"Completed binary-codec handshakes.", Labels{"side": side},
		func() int64 { return int64(w.Negotiations()) })
	o.reg.GaugeFunc(MetricWireFrameErrors,
		"Frames that arrived but failed to decode.", Labels{"side": side},
		func() int64 { return int64(w.FrameErrors()) })
	if pipelineDepth != nil {
		o.reg.GaugeFunc(MetricPipelineDepth,
			"Calls currently in flight on the control channel.", Labels{"side": side},
			pipelineDepth)
	}
}

// BindWAL registers scrape-time gauges over the daemon's write-ahead
// log — segment count, on-disk bytes, last assigned sequence, live
// sessions, append and fsync totals — and installs the fsync latency
// observer feeding the convgpu_wal_fsync_seconds histogram. The log's
// Stats call is a single mutex acquisition, paid only at scrape time.
func (o *Observability) BindWAL(l *wal.Log) {
	o.reg.GaugeFunc(MetricWALSegments,
		"Write-ahead log segment files on disk (including the active one).", nil,
		func() int64 { return int64(l.Stats().Segments) })
	o.reg.GaugeFunc(MetricWALSizeBytes,
		"Total bytes across write-ahead log segments.", nil,
		func() int64 { return l.Stats().SizeBytes })
	o.reg.GaugeFunc(MetricWALLastSeq,
		"Highest sequence number the write-ahead log has assigned.", nil,
		func() int64 { return int64(l.Stats().LastSeq) })
	o.reg.GaugeFunc(MetricWALSessions,
		"Live sessions in the write-ahead log's folded view.", nil,
		func() int64 { return int64(l.Stats().Sessions) })
	o.reg.GaugeFunc(MetricWALAppends,
		"Records appended to the write-ahead log.", nil,
		func() int64 { return int64(l.Stats().Appends) })
	o.reg.GaugeFunc(MetricWALSyncs,
		"fsync calls issued by the write-ahead log.", nil,
		func() int64 { return int64(l.Stats().Syncs) })
	h := o.reg.NewHistogram(MetricWALFsyncLatency,
		"Latency of one write-ahead log fsync.", nil)
	l.SetFsyncObserver(h.Observe)
}

// ObserveSuspendWait records one suspension wait into the aggregate
// histogram and — when BindCore registered the device — its per-device
// series. Suspension release is off the zero-alloc fast path, so the
// map lookup is affordable here.
func (o *Observability) ObserveSuspendWait(device int, d time.Duration) {
	o.SuspendWait.Observe(d)
	o.devMu.RLock()
	h := o.suspendByDev[device]
	o.devMu.RUnlock()
	if h != nil {
		h.Observe(d)
	}
}

// deviceAt re-reads one device's live summary at scrape time.
func deviceAt(st core.Scheduler, index int) core.DeviceInfo {
	for _, d := range st.Devices() {
		if d.Index == index {
			return d
		}
	}
	return core.DeviceInfo{}
}

// EventCount returns the running total for one event kind.
func (o *Observability) EventCount(kind core.EventKind) uint64 {
	k := int(kind)
	if k < 0 || k >= len(o.byKind) {
		return 0
	}
	return o.byKind[k].Value()
}

// EventCounts returns every kind's running total, keyed by the kind's
// string name ("accept", "suspend", "reject", ...).
func (o *Observability) EventCounts() map[string]uint64 {
	out := make(map[string]uint64, core.NumEventKinds)
	for k := 0; k < core.NumEventKinds; k++ {
		out[core.EventKind(k).String()] = o.byKind[k].Value()
	}
	return out
}

// StatsPayload is the JSON shape of the stats document.
type StatsPayload struct {
	Algorithm string        `json:"algorithm"`
	AtNano    int64         `json:"at_unix_nano"`
	Metrics   []MetricPoint `json:"metrics"`
}

// StatsJSON renders the full metric snapshot as a StatsPayload.
func (o *Observability) StatsJSON() ([]byte, error) {
	return json.Marshal(StatsPayload{
		Algorithm: o.algo,
		AtNano:    time.Now().UnixNano(),
		Metrics:   o.Registry().Snapshot(),
	})
}

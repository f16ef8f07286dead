// Package daemon runs the GPU memory scheduler as a host-side service
// (paper §III-D): "GPU memory scheduler is a standalone program written
// in Go ... It runs on the host machine similar to nvidia-docker-plugin."
//
// The daemon exposes a control socket for the customized nvidia-docker
// (container registration) and nvidia-docker-plugin (close signals). For
// every registered container it prepares a dedicated directory holding a
// UNIX socket plus the wrapper module, which nvidia-docker mounts into
// the container as a volume. Allocation requests arriving on a
// container's socket are decided by the core scheduler; suspended
// requests have their responses parked until a redistribution admits
// them — the wrapper module inside the container stays blocked in the
// allocation call exactly as the paper describes.
package daemon

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"convgpu/internal/asyncop"
	"convgpu/internal/bytesize"
	"convgpu/internal/clock"
	"convgpu/internal/core"
	"convgpu/internal/errs"
	"convgpu/internal/ipc"
	"convgpu/internal/obs"
	"convgpu/internal/protocol"
	"convgpu/internal/wal"
)

// ControlSocketName is the control socket file inside the base directory.
const ControlSocketName = "scheduler.sock"

// Config configures the daemon.
type Config struct {
	// BaseDir is where the control socket and per-container directories
	// are created.
	BaseDir string
	// Core is the scheduling backend. Required. A single *core.State
	// serves one device; a multigpu.State serves several behind the same
	// interface — the daemon routes per-container traffic identically.
	Core core.Scheduler
	// Lease is how long a container's session may stay silent before the
	// daemon reaps it as dead — a container that was SIGKILLed never
	// sends a close signal, and without a lease its grant would be
	// pinned forever. Any message on the container's socket renews the
	// lease (idle wrappers send heartbeats). Zero disables leasing.
	Lease time.Duration
	// Clock paces the lease accounting; nil uses the real clock. Tests
	// inject a manual clock to expire leases deterministically.
	Clock clock.Clock
	// Obs receives the daemon's runtime telemetry (handler latency,
	// suspend waits, lease expiries) and backs the stats, trace and dump
	// documents. Nil builds a default bundle —
	// observability is always on; its record paths are atomic-only, so
	// the hot path stays allocation-free either way.
	Obs *obs.Observability
	// Logf receives the daemon's operational log lines — today that is
	// the restart-recovery path explaining every session it discards,
	// which would otherwise vanish silently. Nil discards them. Not
	// called on the request hot path.
	Logf func(format string, args ...any)
	// WAL is the daemon's one durable store: every session-changing
	// event is appended (and synced per the log's policy) before it is
	// acknowledged, restart recovery replays it, and the obs bundle
	// exports its counters. A log passed here is the caller's — open it
	// before Start, close it after Close. Nil means the daemon's own log
	// under <BaseDir>/wal, never fsynced (wal.SyncNone) and closed by
	// Close: it lives beside the sockets and container directories it
	// would recover, so it has to outlive the daemon process, not the host.
	WAL *wal.Log
	// Tenants is the operator's static tenant table. A registration
	// naming one of these tenants uses the configured definition,
	// overriding any attributes the wire message carries; names the
	// table does not know are adopted from the wire. Empty is fine —
	// every container then belongs to the default tenant unless its
	// registration says otherwise.
	Tenants []core.Tenant
}

// Daemon is a running scheduler service.
type Daemon struct {
	cfg     Config
	clk     clock.Clock
	obs     *obs.Observability
	wal     *wal.Log // Config.WAL, or the daemon's own log when that is nil
	control *ipc.Server
	// wire counts transport frames by codec across the control socket
	// and every container socket; obs renders it at scrape time.
	wire *ipc.WireStats

	// lastSeen tracks per-container lease renewal times
	// (core.ContainerID → *leaseEntry). A sync.Map keeps the hot-path
	// touch — one Load plus one atomic store per request — off the
	// daemon mutex. Only populated when Config.Lease > 0.
	lastSeen sync.Map

	reapStop chan struct{}
	reapDone chan struct{}

	// ops runs the admin plane's asynchronous verbs (drain, failover,
	// compact, ...) and retains their outcomes for polling.
	ops *asyncop.Manager
	// compacting is set while a compaction the daemon submitted itself
	// (compactIfGrown) is queued or running.
	compacting atomic.Bool

	mu      sync.Mutex
	parked  map[parkedKey]parkedResponder
	servers map[core.ContainerID]*ipc.Server
	// dirMu orders the container directories' lives: a close holds it
	// from before the core lets the ID go until its directory is removed,
	// a register from creating the directory until its socket listens.
	dirMu sync.Mutex
	// gate closes the window between a handler being told Suspend and its
	// responder being parked: handlers hold it shared from the decision to
	// the park, and dispatch passes through it exclusively before it looks
	// a ticket's responder up. A ticket dispatch then finds without a
	// responder has lost its connection; none is merely not parked yet.
	gate sync.RWMutex
	// beforePark, when a test sets it, runs in the gap between a Suspend
	// decision and the parking of its responder.
	beforePark func()
	// tenantDefs is the resolved tenant table: Config.Tenants seeded at
	// Start, recovered definitions merged under it, inline wire
	// definitions adopted on first sight. tenantLogged marks the names
	// whose current definition is in the log.
	tenantDefs   map[string]core.Tenant
	tenantLogged map[string]bool
	closed       bool
}

// parkedKey identifies a parked response. Tickets are only unique per
// core.State — a multi-device backend runs one state per device, so two
// containers on different devices can hold the same ticket number — and
// the container ID disambiguates.
type parkedKey struct {
	id core.ContainerID
	t  core.Ticket
}

// parkedResponder is a withheld response plus the connection it will
// leave on, kept so dispatch can batch the responses of one update into
// a single socket write per connection. The park time feeds the
// suspend-wait histogram when the response is finally released; the
// device (resolved once at park time, while the container is certainly
// still placed) labels its per-device series.
type parkedResponder struct {
	respond func(*protocol.Message)
	conn    *ipc.ServerConn
	at      time.Time
	device  int
}

// Start creates the base directory, launches the control socket and
// returns the running daemon.
//
// A control socket file left behind by a previous run is taken over
// after a dial probe proves no live daemon answers on it; if one does,
// Start fails instead of stealing its socket. The sessions a previous
// run left open in the log are recovered: their registrations are
// re-applied idempotently and their sockets re-listen, so wrappers
// reconnect and replay instead of losing their grants.
func Start(cfg Config) (*Daemon, error) {
	if cfg.Core == nil {
		return nil, fmt.Errorf("daemon: Config.Core is required")
	}
	if cfg.BaseDir == "" {
		return nil, fmt.Errorf("daemon: Config.BaseDir is required")
	}
	if err := os.MkdirAll(cfg.BaseDir, 0o755); err != nil {
		return nil, fmt.Errorf("daemon: create base dir: %w", err)
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New(obs.Config{Algorithm: cfg.Core.AlgorithmName()})
	}
	cfg.Obs.BindCore(cfg.Core)
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	d := &Daemon{
		cfg:          cfg,
		clk:          cfg.Clock,
		obs:          cfg.Obs,
		wire:         &ipc.WireStats{},
		parked:       make(map[parkedKey]parkedResponder),
		servers:      make(map[core.ContainerID]*ipc.Server),
		tenantDefs:   make(map[string]core.Tenant),
		tenantLogged: make(map[string]bool),
		reapStop:     make(chan struct{}),
		reapDone:     make(chan struct{}),
	}
	for _, t := range cfg.Tenants {
		if t.Name == "" {
			return nil, fmt.Errorf("daemon: Config.Tenants entry without a name")
		}
		if _, dup := d.tenantDefs[t.Name]; dup {
			return nil, fmt.Errorf("daemon: Config.Tenants defines %q twice", t.Name)
		}
		d.tenantDefs[t.Name] = t
	}
	if fs, ok := cfg.Core.(core.FailoverSource); ok {
		// A cluster backend reports node failovers synchronously; the
		// daemon re-keys parked responders and logs each move in step
		// with the migration.
		fs.OnFailover(d.handleFailover)
	}
	if m, ok := cfg.Core.(core.Membership); ok {
		cfg.Obs.BindMembership(m)
	}
	ctlPath := filepath.Join(cfg.BaseDir, ControlSocketName)
	if err := takeoverSocket(ctlPath); err != nil {
		return nil, err
	}
	// Only now is the base directory known to be this daemon's alone.
	if d.wal = cfg.WAL; d.wal == nil {
		l, err := wal.Open(wal.Options{Dir: filepath.Join(cfg.BaseDir, "wal"), Sync: wal.SyncNone, Logf: cfg.Logf})
		if err != nil {
			return nil, fmt.Errorf("daemon: open session log: %w", err)
		}
		d.wal = l
	}
	cfg.Obs.BindWAL(d.wal)
	if err := d.recoverFromWAL(); err != nil {
		d.closeOwnLog()
		return nil, err
	}
	d.ops = asyncop.New(2, cfg.Clock.Now)
	ctl, err := ipc.Listen(ctlPath, controlHandler{d})
	if err != nil {
		d.closeRecovered()
		d.ops.Close()
		d.closeOwnLog()
		return nil, err
	}
	ctl.SetWireStats(d.wire)
	ctl.SetHandlerLatency(cfg.Obs.HandlerControl)
	cfg.Obs.BindWire("daemon", d.wire, nil)
	d.control = ctl
	if cfg.Lease > 0 {
		go d.reapLoop()
	} else {
		close(d.reapDone)
	}
	return d, nil
}

// takeoverSocket prepares a control-socket path that may hold a stale
// file from a crashed daemon. A dial probe distinguishes stale from
// live: nothing answering means the previous daemon is gone and the
// file is removed; an answering peer means another daemon owns the
// socket and starting would steal its clients mid-session.
func takeoverSocket(path string) error {
	if _, err := os.Stat(path); err != nil {
		return nil // no leftover socket
	}
	conn, err := net.DialTimeout("unix", path, time.Second)
	if err == nil {
		conn.Close()
		return fmt.Errorf("daemon: control socket %s is owned by a running daemon", path)
	}
	if err := os.Remove(path); err != nil {
		return fmt.Errorf("daemon: remove stale control socket: %w", err)
	}
	return nil
}

// ControlSocket returns the path of the control socket nvidia-docker and
// the plugin connect to.
func (d *Daemon) ControlSocket() string { return d.control.Addr() }

// Core exposes the scheduling backend (read-mostly: snapshots, metrics).
func (d *Daemon) Core() core.Scheduler { return d.cfg.Core }

// Obs exposes the daemon's observability bundle (always non-nil).
func (d *Daemon) Obs() *obs.Observability { return d.obs }

// WireStats exposes the daemon-side transport frame counters, summed
// across the control socket and every container socket.
func (d *Daemon) WireStats() *ipc.WireStats { return d.wire }

// Close shuts down the control socket and every container socket.
// Parked requests are released with an error.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	servers := make([]*ipc.Server, 0, len(d.servers))
	for _, s := range d.servers {
		servers = append(servers, s)
	}
	parked := d.parked
	d.parked = make(map[parkedKey]parkedResponder)
	d.mu.Unlock()

	if d.cfg.Lease > 0 {
		close(d.reapStop)
	}
	<-d.reapDone
	d.ops.Close()

	now := d.clk.Now()
	for _, p := range parked {
		d.obs.ObserveSuspendWait(p.device, now.Sub(p.at))
		p.respond(&protocol.Message{OK: false, Error: "scheduler shutting down", Code: protocol.CodeUnavailable})
	}
	err := d.control.Close()
	for _, s := range servers {
		s.Close()
	}
	// Last: a handler still draining may append.
	return errors.Join(err, d.closeOwnLog())
}

// closeOwnLog closes the log Start opened because Config.WAL was nil; a
// log the caller passed in is the caller's to close.
func (d *Daemon) closeOwnLog() error {
	if d.cfg.WAL != nil {
		return nil
	}
	return d.wal.Close()
}

// containerDir is the container's directory, inside containers/ and one
// per ID: an ID made only of [A-Za-z0-9_.-] is its directory's name; any
// other byte is written %XX, and so is each byte of "." and "..", which
// name no directory of their own. '%' is never a name byte, so no two IDs
// share a name ("" is "%").
func (d *Daemon) containerDir(id core.ContainerID) string {
	special := id == "." || id == ".."
	var b strings.Builder
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !special && (c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_' || c == '.') {
			b.WriteByte(c)
		} else {
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	if id == "" {
		b.WriteByte('%')
	}
	return filepath.Join(d.cfg.BaseDir, "containers", b.String())
}

// register implements the Register control message: it admits the
// container with the core under its resolved tenant, prepares its
// directory, socket and wrapper module copy, and reports the directory
// back to nvidia-docker.
func (d *Daemon) register(id core.ContainerID, limit int64, t core.Tenant) (*protocol.Message, error) {
	granted, err := d.cfg.Core.RegisterTenant(id, bytesize.Size(limit), t)
	if err != nil {
		return nil, err
	}
	device, err := d.cfg.Core.Placement(id)
	if err != nil {
		d.cfg.Core.Close(id)
		return nil, err
	}
	d.dirMu.Lock()
	defer d.dirMu.Unlock()
	dir := d.containerDir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		d.cfg.Core.Close(id)
		return nil, fmt.Errorf("daemon: container dir: %w", err)
	}
	// "copies the wrapper module to the directory" — the module carries
	// the socket path it must talk to.
	sockPath := filepath.Join(dir, protocol.SocketFileName)
	module := fmt.Sprintf("convgpu wrapper module for container %s\nsocket=%s\n", id, sockPath)
	if err := os.WriteFile(filepath.Join(dir, protocol.ModuleFileName), []byte(module), 0o644); err != nil {
		d.cfg.Core.Close(id)
		return nil, fmt.Errorf("daemon: write wrapper module: %w", err)
	}
	// Log the admission before acknowledging it: a registration the
	// daemon cannot log is unwound, not acked. The tenant's definition
	// lands first so replay folds it before the session that references
	// it.
	if err := d.persistTenant(t); err != nil {
		d.cfg.Core.Close(id)
		return nil, err
	}
	if err := d.walAppend(wal.Record{
		Kind: wal.KindRegister, Container: string(id), Amount: limit, Device: int32(device), Tenant: t.Name,
	}); err != nil {
		d.cfg.Core.Close(id)
		return nil, err
	}
	d.compactIfGrown()
	if err := d.serve(id, dir); err != nil {
		d.cfg.Core.Close(id)
		return nil, err
	}

	resp := &protocol.Message{OK: true, Granted: int64(granted), SocketDir: dir, Device: device}
	return resp, nil
}

// serve opens a container's socket in dir and enters the container in
// the daemon's tables.
func (d *Daemon) serve(id core.ContainerID, dir string) error {
	sockPath := filepath.Join(dir, protocol.SocketFileName)
	os.Remove(sockPath) // a previous run's listener
	srv, err := ipc.Listen(sockPath, containerHandler{d: d, id: id})
	if err != nil {
		return err
	}
	srv.SetWireStats(d.wire)
	srv.SetHandlerLatency(d.obs.HandlerContainer)
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		srv.Close()
		return fmt.Errorf("daemon: shutting down")
	}
	d.servers[id] = srv
	d.mu.Unlock()
	d.touch(id)
	return nil
}

// closeContainer implements the plugin's close signal.
func (d *Daemon) closeContainer(id core.ContainerID) (*protocol.Message, error) {
	return d.closeContainerKind(id, wal.KindClose)
}

// closeContainerKind is closeContainer with the record kind chosen by
// the caller — the lease reaper records KindLeaseExpire so a replayed
// log distinguishes operator closes from reaped sessions. The record is
// the acknowledgement's precondition, as register's is: appended while
// the core still holds the session, so a refused append leaves core and
// log agreeing on an open session (closing the core first let a restart
// re-offer a session, grant included, that nobody was left to close). A
// close that loses the race to another leaves a second record, which
// folds to nothing.
func (d *Daemon) closeContainerKind(id core.ContainerID, kind wal.Kind) (*protocol.Message, error) {
	d.dirMu.Lock()
	defer d.dirMu.Unlock()
	if _, err := d.cfg.Core.Info(id); err != nil {
		return nil, err
	}
	if err := d.walAppend(wal.Record{Kind: kind, Container: string(id)}); err != nil {
		return nil, err
	}
	d.compactIfGrown()
	released, update, err := d.cfg.Core.Close(id)
	if err != nil {
		return nil, err
	}
	d.dispatch(update)
	d.mu.Lock()
	srv := d.servers[id]
	delete(d.servers, id)
	d.mu.Unlock()
	d.lastSeen.Delete(id)
	if srv != nil {
		// The socket file goes now, before a register of the same ID can
		// listen there again; the connections close in the background:
		// the close signal must not wait for in-flight handlers.
		srv.Retire()
	}
	d.removeDir(id)
	return &protocol.Message{OK: true, Free: int64(released)}, nil
}

// removeDir removes a closed container's directory, its socket already
// unlinked. Caller holds dirMu.
func (d *Daemon) removeDir(id core.ContainerID) {
	if err := os.RemoveAll(d.containerDir(id)); err != nil {
		d.cfg.Logf("daemon: remove %q's directory: %v", id, err)
	}
}

// park stores a suspended request's responder under its container+ticket.
func (d *Daemon) park(k parkedKey, conn *ipc.ServerConn, respond func(*protocol.Message)) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		respond(&protocol.Message{OK: false, Error: "scheduler shutting down", Code: protocol.CodeUnavailable})
		return
	}
	device, _ := d.cfg.Core.Placement(k.id)
	d.parked[k] = parkedResponder{respond: respond, conn: conn, at: d.clk.Now(), device: device}
	d.mu.Unlock()
}

// dispatch releases parked responders according to a core update:
// admitted requests get an accept, cancelled ones an error. Responses
// headed for the same connection are bracketed in a write batch, so the
// N tickets one redistribution admits on a container's socket leave in
// a single syscall instead of N.
func (d *Daemon) dispatch(u core.Update) {
	if len(u.Admitted) == 0 && len(u.Cancelled) == 0 {
		return
	}
	// Wait until no handler is between a Suspend decision and its park.
	// Before d.mu: park takes d.mu inside the gate.
	d.gate.Lock()
	d.gate.Unlock()
	now := d.clk.Now()
	d.mu.Lock()
	type rel struct {
		respond func(*protocol.Message)
		msg     *protocol.Message
	}
	byConn := make(map[*ipc.ServerConn][]rel)
	// release takes a ticket's responder. Every ticket in u was parked
	// before this point (the gate), so one that is missing was taken by
	// releaseConn or a failover when its connection or node died: core
	// has resolved it, and there is nobody left to tell.
	var lost []parkedKey
	release := func(id core.ContainerID, t core.Ticket, m *protocol.Message) {
		k := parkedKey{id, t}
		p, parked := d.parked[k]
		if !parked {
			lost = append(lost, k)
			protocol.ReleaseMessage(m)
			return
		}
		delete(d.parked, k)
		d.obs.ObserveSuspendWait(p.device, now.Sub(p.at))
		byConn[p.conn] = append(byConn[p.conn], rel{p.respond, m})
	}
	for _, a := range u.Admitted {
		m := ok()
		m.Decision = protocol.DecisionAccept
		release(a.Container, a.Ticket, m)
	}
	for _, c := range u.Cancelled {
		m := protocol.AcquireMessage()
		m.Error = "container closed"
		release(c.Container, c.Ticket, m)
	}
	d.mu.Unlock()
	for _, k := range lost {
		d.cfg.Logf("daemon: ticket %d of %q resolved after its connection was lost", k.t, k.id)
	}
	for conn, rels := range byConn {
		if conn != nil && len(rels) > 1 {
			conn.BeginBatch()
		}
		for _, r := range rels {
			r.respond(r.msg)
		}
		if conn != nil && len(rels) > 1 {
			conn.EndBatch()
		}
	}
}

// codeFor maps a scheduler error onto its wire error code (empty when
// the failure has no machine-readable class). Clients reverse the
// mapping with protocol.ErrFromCode to get errors.Is-able sentinels.
func codeFor(err error) string {
	switch {
	case errors.Is(err, core.ErrLimitExceedsCapacity):
		return protocol.CodeOverCapacity
	case errors.Is(err, core.ErrUnknownContainer):
		return protocol.CodeUnknownContainer
	case errors.Is(err, errs.ErrNodeDown):
		return protocol.CodeNodeDown
	case errors.Is(err, errs.ErrDaemonUnavailable):
		return protocol.CodeUnavailable
	default:
		return ""
	}
}

// codedError builds an error response carrying the machine code for err.
func codedError(msg *protocol.Message, err error) *protocol.Message {
	return protocol.CodedErrorResponse(msg, codeFor(err), "%v", err)
}

// controlHandler serves the control socket's two peers (paper §III-D):
// nvidia-docker's registration and the plugin's close signal. Everything
// an operator asks of the daemon goes through internal/admin instead.
type controlHandler struct{ d *Daemon }

// Handle implements ipc.Handler. The server times it into the control
// socket's latency histogram (ipc.Server.SetHandlerLatency).
func (h controlHandler) Handle(conn *ipc.ServerConn, msg *protocol.Message, respond func(*protocol.Message)) {
	switch msg.Type {
	case protocol.TypeRegister:
		resp, err := h.d.register(core.ContainerID(msg.Container), msg.Limit, h.d.resolveTenant(msg))
		if err != nil {
			respond(codedError(msg, err))
			return
		}
		respond(resp)
	case protocol.TypeClose:
		resp, err := h.d.closeContainer(core.ContainerID(msg.Container))
		if err != nil {
			respond(codedError(msg, err))
			return
		}
		respond(resp)
	default:
		respond(protocol.ErrorResponse(msg, "daemon: unexpected %s on control socket", msg.Type))
	}
}

// Closed implements ipc.Handler.
func (h controlHandler) Closed(conn *ipc.ServerConn) {}

// containerHandler serves one container's socket: the wrapper module's
// allocation traffic.
type containerHandler struct {
	d  *Daemon
	id core.ContainerID
}

// ok acquires a pooled success response; respond consumes it (the
// transport returns it to the pool after encoding).
func ok() *protocol.Message {
	m := protocol.AcquireMessage()
	m.OK = true
	return m
}

// Handle implements ipc.Handler. The server times it into the container
// sockets' latency histogram (ipc.Server.SetHandlerLatency); for a
// suspended allocation that is the decision latency (the response itself
// is parked and its wait lands in the suspend-wait histogram instead). A
// successful one-way confirm or free is not answered at all. An alloc's
// and a free's scheduler event is stamped with conn.ReadTime, the reading
// the server took for that sample, so it reads no clock of its own.
func (h containerHandler) Handle(conn *ipc.ServerConn, msg *protocol.Message, respond func(*protocol.Message)) {
	c := h.d.cfg.Core
	h.d.touch(h.id) // any traffic renews the session lease
	switch msg.Type {
	case protocol.TypeAlloc:
		h.d.gate.RLock()
		res, err := c.RequestAllocAt(h.id, msg.PID, msg.SizeBytes(), conn.ReadTime())
		if err == nil && res.Decision == core.Suspend {
			// The paper's pause: withhold the response until granted. The
			// gate is held from the decision to the park, so a release
			// that admits this ticket in between finds its responder.
			if h.d.beforePark != nil {
				h.d.beforePark()
			}
			h.d.park(parkedKey{h.id, res.Ticket}, conn, respond)
		}
		h.d.gate.RUnlock()
		if err != nil {
			respond(codedError(msg, err))
			return
		}
		switch res.Decision {
		case core.Accept:
			m := ok()
			m.Decision = protocol.DecisionAccept
			respond(m)
		case core.Reject:
			m := ok()
			m.Decision = protocol.DecisionReject
			respond(m)
		}
	case protocol.TypeConfirm:
		if err := c.ConfirmAlloc(h.id, msg.PID, msg.Addr, msg.SizeBytes()); err != nil {
			respond(codedError(msg, err))
			return
		}
		if !msg.NoReply {
			respond(ok())
		}
	case protocol.TypeAbort:
		u, err := c.AbortAlloc(h.id, msg.PID, msg.SizeBytes())
		if err != nil {
			respond(codedError(msg, err))
			return
		}
		respond(ok())
		h.d.dispatch(u)
	case protocol.TypeFree:
		size, u, err := c.FreeAt(h.id, msg.PID, msg.Addr, conn.ReadTime())
		if err != nil {
			if msg.NoReply {
				// Nobody waits on a one-way free, so a refusal is counted
				// and logged here. An unknown address is then all it gets:
				// with several threads allocating, the device can hand a
				// freed address out again and the confirm of its reuse can
				// overtake this report, which core's confirm has already
				// applied (see confirmLocked). Anything else also goes back
				// for the wrapper's next call to fail on.
				h.d.wire.CountFrameError()
				h.d.cfg.Logf("daemon: %q: one-way free of %#x by pid %d refused: %v", h.id, msg.Addr, msg.PID, err)
				if errors.Is(err, core.ErrUnknownAddr) {
					return
				}
			}
			respond(codedError(msg, err))
			return
		}
		if !msg.NoReply {
			m := ok()
			m.Free = int64(size)
			respond(m)
		}
		h.d.dispatch(u)
	case protocol.TypeProcExit:
		size, u, err := c.ProcessExit(h.id, msg.PID)
		if err != nil {
			respond(codedError(msg, err))
			return
		}
		m := ok()
		m.Free = int64(size)
		respond(m)
		h.d.dispatch(u)
	case protocol.TypeMemInfo:
		free, total, err := c.MemInfo(h.id)
		if err != nil {
			respond(codedError(msg, err))
			return
		}
		m := ok()
		m.Free = int64(free)
		m.Total = int64(total)
		respond(m)
	case protocol.TypeAttach:
		// A wrapper re-binding its session after a reconnect. The
		// registration survived (same daemon) or was recovered from the
		// log (restarted daemon); either way the container must
		// be known — an attach for an unknown one is refused so the
		// wrapper does not run against a scheduler with no account of it.
		info, err := c.Info(h.id)
		if err != nil {
			respond(codedError(msg, err))
			return
		}
		if msg.Tenant != "" && info.Tenant != msg.Tenant {
			// A pre-tenant session re-attaching under a tenant identity:
			// adopt the binding (the core keeps an existing conflicting
			// binding per the EnsureRegisteredTenant contract) and make
			// the rebind durable so replay converges on it.
			t := h.d.resolveTenant(msg)
			if _, err := c.EnsureRegisteredTenant(h.id, info.Limit, t); err == nil {
				device, _ := c.Placement(h.id)
				if err := h.d.persistTenant(t); err != nil {
					h.d.cfg.Logf("daemon: attach %q: tenant definition not persisted: %v", h.id, err)
				} else if err := h.d.walAppend(wal.Record{
					Kind: wal.KindRegister, Container: string(h.id),
					Amount: int64(info.Limit), Device: int32(device), Tenant: t.Name,
					Meta: "tenant adopted at attach",
				}); err != nil {
					h.d.cfg.Logf("daemon: attach %q: tenant rebind not persisted: %v", h.id, err)
				}
			}
		}
		m := ok()
		if device, err := c.Placement(h.id); err == nil {
			m.Device = device
		}
		// The one event of this socket that core does not emit into the ring.
		h.d.obs.Tracer().Record(h.d.clk.Now(), "attach", string(h.id), msg.PID, 0, m.Device, 0)
		respond(m)
	case protocol.TypeRestore:
		if err := c.Restore(h.id, msg.PID, msg.Addr, msg.SizeBytes()); err != nil {
			respond(codedError(msg, err))
			return
		}
		respond(ok())
	case protocol.TypeHeartbeat:
		// The touch above did the work; acknowledge so the wrapper's
		// deadline-bounded call completes.
		respond(ok())
	default:
		respond(protocol.ErrorResponse(msg, "daemon: unexpected %s on container socket", msg.Type))
	}
}

// Closed implements ipc.Handler. The wrapper process vanished without a
// procexit (crash, kill -9, network fault): any responses still parked
// for this connection could never be delivered, so the tickets are
// dropped from the scheduler queue — a dead wrapper must not pin
// memory redistribution — and the freed queue slots may admit other
// containers' suspended requests. The explicit close signal (or the
// lease reaper) still reclaims the container's memory later.
func (h containerHandler) Closed(conn *ipc.ServerConn) {
	h.d.releaseConn(h.id, conn)
}

// releaseConn drops every parked responder bound to a dead connection.
func (d *Daemon) releaseConn(id core.ContainerID, conn *ipc.ServerConn) {
	now := d.clk.Now()
	d.mu.Lock()
	var tickets []core.Ticket
	var responders []func(*protocol.Message)
	for k, p := range d.parked {
		if k.id == id && p.conn == conn {
			delete(d.parked, k)
			d.obs.ObserveSuspendWait(p.device, now.Sub(p.at))
			tickets = append(tickets, k.t)
			responders = append(responders, p.respond)
		}
	}
	d.mu.Unlock()
	if len(tickets) == 0 {
		return
	}
	for _, r := range responders {
		// The connection is gone, so the send fails on the dead socket;
		// responding still spends the responder and returns
		// the message to the pool.
		m := protocol.AcquireMessage()
		m.Error = "connection dropped while allocation was suspended"
		r(m)
	}
	u, err := d.cfg.Core.DropPending(id, tickets)
	if err == nil {
		d.dispatch(u)
	}
}

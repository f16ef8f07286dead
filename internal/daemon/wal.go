// The daemon's one durable store, and the admin verbs built on it.
//
// Every session-changing admission event (register, close, migrate,
// lease expiry, evict, a tenant's definition) is appended to the
// write-ahead log — and synced per the log's policy — before the daemon
// acknowledges the event to its caller, and restart recovery is "load
// snapshot + replay tail". Nothing else is appended: allocation history
// is the event ring's (obs.Tracer, /v1/trace; in memory) and recovery
// rebuilds usage from the wrappers' restore replay. The log is the one
// Config.WAL names or, when that is nil, the daemon's own under
// <BaseDir>/wal (see Config.WAL); nothing below asks which.

package daemon

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"convgpu/internal/asyncop"
	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/errs"
	"convgpu/internal/protocol"
	"convgpu/internal/wal"
)

// errNoMembership answers membership verbs on a single-node backend.
var errNoMembership = errors.New("daemon: backend has no node membership (single-node scheduler)")

// walAppend appends one session-changing record, stamping the event
// time. A daemon that cannot log an admission event must not acknowledge
// it, so a refused append maps onto CodeUnavailable for the caller.
func (d *Daemon) walAppend(rec wal.Record) error {
	rec.At = d.clk.Now().UnixNano()
	if _, err := d.wal.Append(rec); err != nil {
		d.cfg.Logf("daemon: wal append %s %q: %v", rec.Kind, rec.Container, err)
		return fmt.Errorf("daemon: persist admission event: %w (%v)", errs.ErrDaemonUnavailable, err)
	}
	return nil
}

// compactIfGrown keeps a log nobody compacts by hand bounded: once a
// register or close leaves more than two sealed segments behind the
// active one, the daemon submits a compaction of its own, one at a time,
// to the operations manager (where /v1/operations shows it).
func (d *Daemon) compactIfGrown() {
	if d.wal.Stats().Segments <= 3 || !d.compacting.CompareAndSwap(false, true) {
		return
	}
	if _, err := d.ops.Submit("compact", "", "wal: over two sealed segments", func() (any, error) {
		defer d.compacting.Store(false)
		return d.CompactWAL()
	}); err != nil {
		d.compacting.Store(false)
	}
}

// recoverFromWAL re-adopts the sessions the write-ahead log folded at
// open: placement pinned (the container's CUDA context lives on the
// recorded device, so a multi-device backend must not place it afresh),
// registration re-applied idempotently (a shared core keeps its grant; a
// fresh core grants anew), socket re-listening so the wrapper's
// reconnect finds a live endpoint. A session the core refuses is evicted
// *into the log*, so the refusal is durable and the next recovery does
// not re-offer it — one unservable session must not keep the scheduler
// down. Whatever else is under containers/ goes.
func (d *Daemon) recoverFromWAL() error {
	// Adopt the log's folded tenant definitions. The configured table
	// still wins for names it defines; for those, the durable copy is
	// considered logged only when it already matches, so the next
	// registration under the name re-appends the overriding definition.
	d.mu.Lock()
	for _, def := range d.wal.Tenants() {
		t := core.Tenant{
			Name: def.Name, Weight: def.Weight, Priority: def.Priority,
			Quota: bytesize.Size(def.Quota), Guarantee: bytesize.Size(def.Guarantee),
		}
		if cfgDef, ok := d.tenantDefs[def.Name]; ok {
			if cfgDef == t {
				d.tenantLogged[def.Name] = true
			}
			continue
		}
		d.tenantDefs[def.Name] = t
		d.tenantLogged[def.Name] = true
	}
	d.mu.Unlock()
	served := make(map[string]bool)
	for _, s := range d.wal.Sessions() {
		id := core.ContainerID(s.Container)
		if err := d.cfg.Core.RestorePlacement(id, s.Device); err != nil {
			d.discardWALSession(id, fmt.Errorf("device %d not restorable: %w", s.Device, err))
			continue
		}
		t := d.tenantFromParts(s.Tenant, 0, 0, 0, 0)
		if _, err := d.cfg.Core.EnsureRegisteredTenant(id, bytesize.Size(s.Limit), t); err != nil {
			d.discardWALSession(id, fmt.Errorf("registration refused: %w", err))
			continue
		}
		dir := d.containerDir(id)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			d.closeRecovered()
			return fmt.Errorf("daemon: recover %s: %w", id, err)
		}
		sockPath := filepath.Join(dir, protocol.SocketFileName)
		if _, err := os.Stat(filepath.Join(dir, protocol.ModuleFileName)); err != nil {
			// First adoption on this host (log shipped in, or base dir
			// moved): materialize the wrapper module the runtime mounts.
			module := fmt.Sprintf("convgpu wrapper module for container %s\nsocket=%s\n", id, sockPath)
			if err := os.WriteFile(filepath.Join(dir, protocol.ModuleFileName), []byte(module), 0o644); err != nil {
				d.closeRecovered()
				return fmt.Errorf("daemon: recover %s: %w", id, err)
			}
		}
		if err := d.serve(id, dir); err != nil {
			d.closeRecovered()
			return fmt.Errorf("daemon: recover %s: %w", id, err)
		}
		served[dir] = true
	}
	// Remove every entry under containers/ that no recovered session owns:
	// a crash between a close's log append and its directory removal, or a
	// discarded session, leaves one.
	root := filepath.Join(d.cfg.BaseDir, "containers")
	entries, _ := os.ReadDir(root) // none yet on a fresh base directory
	for _, e := range entries {
		if p := filepath.Join(root, e.Name()); !served[p] {
			if err := os.RemoveAll(p); err != nil {
				d.cfg.Logf("daemon: recovery could not remove %s: %v", p, err)
			}
		}
	}
	return nil
}

// discardWALSession drops one unservable session, making the drop
// durable: an evict record is appended so replay converges on the same
// refusal, the discard is logged with its reason (a wrapper is about to
// find its session gone — the operator should be able to see why), and
// the sessions-discarded counter ticks so fleets alert on recovery loss.
func (d *Daemon) discardWALSession(id core.ContainerID, reason error) {
	if err := d.walAppend(wal.Record{Kind: wal.KindEvict, Container: string(id), Meta: reason.Error()}); err != nil {
		d.cfg.Logf("daemon: recovery evict %q not persisted: %v", id, err)
	}
	d.obs.SessionsDiscarded.Inc()
	d.cfg.Logf("daemon: recovery discarded session %q: %v", id, reason)
}

// closeRecovered unwinds recoverFromWAL when startup fails later on.
func (d *Daemon) closeRecovered() {
	for id, srv := range d.servers {
		srv.Close()
		delete(d.servers, id)
	}
}

// Ops exposes the daemon's async operation manager — the admin plane's
// pollable operations. Non-nil on every started daemon.
func (d *Daemon) Ops() *asyncop.Manager { return d.ops }

// WALStats reports the write-ahead log's counters.
func (d *Daemon) WALStats() wal.Stats { return d.wal.Stats() }

// SnapshotWAL writes a point-in-time snapshot of the folded session
// state, returning the sequence it covers.
func (d *Daemon) SnapshotWAL() (uint64, error) { return d.wal.Snapshot() }

// CompactWAL snapshots and drops fully-covered segments, returning the
// post-compaction stats.
func (d *Daemon) CompactWAL() (wal.Stats, error) {
	if err := d.wal.Compact(); err != nil {
		return wal.Stats{}, err
	}
	return d.wal.Stats(), nil
}

// DrainNode marks one node draining so new placements avoid it.
func (d *Daemon) DrainNode(node int) error {
	m, ok := d.membership()
	if !ok {
		return errNoMembership
	}
	return m.Drain(node)
}

// ReviveNode returns a drained or failed node to service.
func (d *Daemon) ReviveNode(node int) error {
	m, ok := d.membership()
	if !ok {
		return errNoMembership
	}
	return m.Revive(node)
}

// nodeFailer is the manual-failover verb a cluster backend provides
// beyond core.Membership (cluster.Cluster.FailNode).
type nodeFailer interface {
	FailNode(node int) (core.FailoverReport, error)
}

// FailNode fails one node over immediately, migrating its containers
// to survivors; the daemon's failover hook keeps parked responders and
// persisted sessions in step, exactly as for probe-detected failures.
func (d *Daemon) FailNode(node int) (core.FailoverReport, error) {
	f, ok := d.cfg.Core.(nodeFailer)
	if !ok {
		return core.FailoverReport{}, errNoMembership
	}
	return f.FailNode(node)
}

// SessionEntry is one registered session in a sessions page, read off
// the live core (GET /v1/wal reports the log).
type SessionEntry struct {
	Container string `json:"container"`
	Limit     int64  `json:"limit"`
	Device    int    `json:"device"`
	Grant     int64  `json:"grant,omitempty"`
	Used      int64  `json:"used,omitempty"`
	Pending   int    `json:"pending,omitempty"`
}

// SessionPage is one page of the session listing: entries ordered by
// container ID, plus the cursor for the next page.
type SessionPage struct {
	Total     int            `json:"total"`
	Sessions  []SessionEntry `json:"sessions"`
	NextAfter string         `json:"next_after,omitempty"`
	More      bool           `json:"more,omitempty"`
}

// maxSessionPage bounds one sessions page.
const maxSessionPage = 256

// Sessions returns one page of registered sessions ordered by container
// ID: entries with ID > after, at most limit of them (0 or anything
// over the cap means the cap).
func (d *Daemon) Sessions(after string, limit int) SessionPage {
	if limit <= 0 || limit > maxSessionPage {
		limit = maxSessionPage
	}
	var entries []SessionEntry
	for _, info := range d.cfg.Core.Snapshot() {
		device, _ := d.cfg.Core.Placement(info.ID)
		entries = append(entries, SessionEntry{
			Container: string(info.ID), Limit: int64(info.Limit), Device: device,
			Grant: int64(info.Grant), Used: int64(info.Used), Pending: info.Pending,
		})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Container < entries[j].Container })
	page := SessionPage{Total: len(entries), Sessions: []SessionEntry{}}
	i := sort.Search(len(entries), func(i int) bool { return entries[i].Container > after })
	if n := len(entries) - i; n > limit {
		page.Sessions = entries[i : i+limit]
		page.More = true
		page.NextAfter = entries[i+limit-1].Container
	} else if n > 0 {
		page.Sessions = entries[i:]
	}
	return page
}

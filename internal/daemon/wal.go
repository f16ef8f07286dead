// Durable admission log integration plus the admin verbs built on it.
//
// With Config.WAL set, the write-ahead log is the daemon's single
// durable truth: every session-changing admission event (register,
// close, migrate, lease expiry, evict) is appended — and synced per the
// log's policy — before the daemon acknowledges the event to its
// caller, and restart recovery becomes "load snapshot + replay tail"
// instead of scanning per-container session.json files. Nothing else is
// appended: allocation history is the event ring's (obs.Tracer,
// /v1/trace; in memory) and recovery rebuilds usage from the wrappers'
// restore replay. The first boot against an empty log imports any pre-WAL
// session.json records one-time; the files are left in place read-only
// so a rollback to the previous daemon still finds them.

package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"convgpu/internal/asyncop"
	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/errs"
	"convgpu/internal/wal"
)

// errNoMembership answers membership verbs on a single-node backend.
var errNoMembership = errors.New("daemon: backend has no node membership (single-node scheduler)")

// walAppend appends one session-changing record, stamping the event
// time. A daemon that cannot persist an admission must not acknowledge
// it, so a refused append maps onto CodeUnavailable for the caller.
// No-op without a WAL.
func (d *Daemon) walAppend(rec wal.Record) error {
	l := d.cfg.WAL
	if l == nil {
		return nil
	}
	rec.At = d.clk.Now().UnixNano()
	if _, err := l.Append(rec); err != nil {
		d.cfg.Logf("daemon: wal append %s %q: %v", rec.Kind, rec.Container, err)
		return fmt.Errorf("daemon: persist admission event: %w (%v)", errs.ErrDaemonUnavailable, err)
	}
	return nil
}

// recoverFromWAL re-adopts the sessions the write-ahead log folded at
// open: placement pinned, registration re-applied idempotently, socket
// re-listening — the same adoption recoverSessions performs, minus the
// per-container file scan. A session the core refuses is evicted *into
// the log*, so the refusal is durable and the next recovery does not
// re-offer it. When the log is empty this is the first boot under WAL
// and any legacy session.json records are imported first.
func (d *Daemon) recoverFromWAL() error {
	l := d.cfg.WAL
	if l.LastSeq() == 0 {
		if err := d.importLegacySessions(); err != nil {
			return err
		}
	}
	// Adopt the log's folded tenant definitions. The configured table
	// still wins for names it defines; for those, the durable copy is
	// considered logged only when it already matches, so the next
	// registration under the name re-appends the overriding definition.
	d.mu.Lock()
	for _, def := range l.Tenants() {
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
	for _, s := range l.Sessions() {
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
		sockPath := filepath.Join(dir, ContainerSocketName)
		if _, err := os.Stat(filepath.Join(dir, WrapperModuleName)); err != nil {
			// First adoption on this host (log shipped in, or base dir
			// moved): materialize the wrapper module the runtime mounts.
			module := fmt.Sprintf("convgpu wrapper module for container %s\nsocket=%s\n", id, sockPath)
			if err := os.WriteFile(filepath.Join(dir, WrapperModuleName), []byte(module), 0o644); err != nil {
				d.closeRecovered()
				return fmt.Errorf("daemon: recover %s: %w", id, err)
			}
		}
		if err := d.serve(id, dir); err != nil {
			d.closeRecovered()
			return fmt.Errorf("daemon: recover %s: %w", id, err)
		}
	}
	return nil
}

// discardWALSession drops one unservable recovered session, making the
// drop durable: an evict record is appended so replay converges on the
// same refusal, the discard is logged with its reason, and the
// sessions-discarded counter ticks so fleets alert on recovery loss.
func (d *Daemon) discardWALSession(id core.ContainerID, reason error) {
	if err := d.walAppend(wal.Record{Kind: wal.KindEvict, Container: string(id), Meta: reason.Error()}); err != nil {
		d.cfg.Logf("daemon: recovery evict %q not persisted: %v", id, err)
	}
	d.obs.SessionsDiscarded.Inc()
	d.cfg.Logf("daemon: recovery discarded session %q: %v", id, reason)
}

// importLegacySessions folds pre-WAL session.json records into an empty
// log, one register event each. Runs once — after the first append the
// log is never empty again. Files are left untouched: session.json
// stays importable for one release and is never written when the WAL
// is on.
func (d *Daemon) importLegacySessions() error {
	root := filepath.Join(d.cfg.BaseDir, "containers")
	entries, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("daemon: scan container dirs: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(root, e.Name(), sessionFileName))
		if err != nil {
			continue // never registered, or cleanly closed
		}
		var rec sessionRecord
		if err := json.Unmarshal(data, &rec); err != nil || rec.Container == "" {
			d.obs.SessionsDiscarded.Inc()
			d.cfg.Logf("daemon: wal import skipped %q: unreadable session record (%v)", e.Name(), err)
			continue
		}
		if err := d.walAppend(wal.Record{
			Kind: wal.KindRegister, Container: rec.Container,
			Amount: rec.Limit, Device: int32(rec.Device),
			Meta: "imported from session.json",
		}); err != nil {
			return err
		}
		d.cfg.Logf("daemon: wal import: adopted legacy session %q", rec.Container)
	}
	return nil
}

// Ops exposes the daemon's async operation manager — the admin plane's
// pollable operations. Non-nil on every started daemon.
func (d *Daemon) Ops() *asyncop.Manager { return d.ops }

// WALStats reports the write-ahead log's counters; ok is false when the
// daemon runs without a WAL.
func (d *Daemon) WALStats() (wal.Stats, bool) {
	if d.cfg.WAL == nil {
		return wal.Stats{}, false
	}
	return d.cfg.WAL.Stats(), true
}

// SnapshotWAL writes a point-in-time snapshot of the folded session
// state, returning the sequence it covers.
func (d *Daemon) SnapshotWAL() (uint64, error) {
	if d.cfg.WAL == nil {
		return 0, errors.New("daemon: no write-ahead log configured")
	}
	return d.cfg.WAL.Snapshot()
}

// CompactWAL snapshots and drops fully-covered segments, returning the
// post-compaction stats.
func (d *Daemon) CompactWAL() (wal.Stats, error) {
	if d.cfg.WAL == nil {
		return wal.Stats{}, errors.New("daemon: no write-ahead log configured")
	}
	if err := d.cfg.WAL.Compact(); err != nil {
		return wal.Stats{}, err
	}
	return d.cfg.WAL.Stats(), nil
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

// SessionEntry is one registered session in a sessions page. Grant,
// Used and Pending are filled only when the page reads the live core
// (no WAL) — the durable view knows limits and placements, not usage.
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
// over the cap means the cap). With a WAL the page reads the folded
// durable state — O(sessions) regardless of page count; without one it
// snapshots the live core and includes grant/usage detail.
func (d *Daemon) Sessions(after string, limit int) SessionPage {
	if limit <= 0 || limit > maxSessionPage {
		limit = maxSessionPage
	}
	var entries []SessionEntry
	if l := d.cfg.WAL; l != nil {
		for _, s := range l.Sessions() {
			entries = append(entries, SessionEntry{Container: s.Container, Limit: s.Limit, Device: s.Device})
		}
	} else {
		for _, info := range d.cfg.Core.Snapshot() {
			device, _ := d.cfg.Core.Placement(info.ID)
			entries = append(entries, SessionEntry{
				Container: string(info.ID), Limit: int64(info.Limit), Device: device,
				Grant: int64(info.Grant), Used: int64(info.Used), Pending: info.Pending,
			})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].Container < entries[j].Container })
	}
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

// Session durability and liveness: the daemon persists each container's
// registration next to its socket so a restarted daemon can recover the
// session instead of orphaning the wrapper, and (when configured) leases
// each session so a container that died without a close signal is
// reaped after a grace window rather than pinning its grant forever.

package daemon

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/wal"
)

// sessionFileName is the per-container session record inside the
// container's directory, written at registration and removed on close.
const sessionFileName = "session.json"

// sessionRecord is what survives a daemon restart — exactly the inputs
// the control-socket registration took, plus the device the container
// was placed on. Everything else (grants, usage) is rebuilt by the core
// (EnsureRegistered) and the wrappers' replay; the device must be
// persisted because a fresh placement policy would otherwise be free to
// move the container, while its CUDA context is pinned to the original
// device.
type sessionRecord struct {
	Container string `json:"container"`
	Limit     int64  `json:"limit"`
	Device    int    `json:"device,omitempty"`
	// Tenant identity travels with the session so a restarted daemon
	// re-binds the container to the same tenant with the same
	// scheduling attributes (the configured table still wins).
	Tenant          string `json:"tenant,omitempty"`
	TenantWeight    int    `json:"tenant_weight,omitempty"`
	TenantPriority  int    `json:"tenant_priority,omitempty"`
	TenantQuota     int64  `json:"tenant_quota,omitempty"`
	TenantGuarantee int64  `json:"tenant_guarantee,omitempty"`
}

func writeSessionFile(dir string, id core.ContainerID, limit bytesize.Size, device int, t core.Tenant) error {
	data, err := json.Marshal(sessionRecord{
		Container: string(id), Limit: int64(limit), Device: device,
		Tenant: t.Name, TenantWeight: t.Weight, TenantPriority: t.Priority,
		TenantQuota: int64(t.Quota), TenantGuarantee: int64(t.Guarantee),
	})
	if err != nil {
		return fmt.Errorf("daemon: encode session record: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, sessionFileName), data, 0o644); err != nil {
		return fmt.Errorf("daemon: write session record: %w", err)
	}
	return nil
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

// recoverSessions re-adopts container sessions a previous daemon left
// behind: for every persisted session record the registration is
// re-applied idempotently (a shared core keeps its grant; a fresh core
// grants anew) and the container socket re-listens so the wrapper's
// reconnect finds a live endpoint. A record the core refuses (e.g. a
// diverged limit) is skipped and deleted rather than failing startup —
// one corrupt session must not keep the scheduler down.
func (d *Daemon) recoverSessions() error {
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
		dir := filepath.Join(root, e.Name())
		data, err := os.ReadFile(filepath.Join(dir, sessionFileName))
		if err != nil {
			continue // never registered, or cleanly closed
		}
		var rec sessionRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			d.discardSession(dir, e.Name(), fmt.Errorf("unreadable record: %w", err))
			continue
		}
		if rec.Container == "" {
			d.discardSession(dir, e.Name(), fmt.Errorf("record has no container id"))
			continue
		}
		id := core.ContainerID(rec.Container)
		// Pin the recorded device before re-registering: the container's
		// CUDA context lives on that device, so a multi-device backend
		// must not place it afresh. A device the backend no longer serves
		// (restarted with fewer GPUs) invalidates the session.
		if err := d.cfg.Core.RestorePlacement(id, rec.Device); err != nil {
			d.discardSession(dir, e.Name(), fmt.Errorf("device %d not restorable: %w", rec.Device, err))
			continue
		}
		t := d.tenantFromParts(rec.Tenant, rec.TenantWeight, rec.TenantPriority, rec.TenantQuota, rec.TenantGuarantee)
		if _, err := d.cfg.Core.EnsureRegisteredTenant(id, bytesize.Size(rec.Limit), t); err != nil {
			d.discardSession(dir, e.Name(), fmt.Errorf("registration refused: %w", err))
			continue
		}
		if err := d.serve(id, dir); err != nil {
			d.closeRecovered()
			return fmt.Errorf("daemon: recover %s: %w", id, err)
		}
	}
	return nil
}

// discardSession drops one unrecoverable session record: the file is
// removed so the next restart does not trip over it again, the discard
// is logged with its reason (a wrapper is about to find its session
// gone — the operator should be able to see why), and the
// sessions-discarded counter ticks so fleets alert on recovery loss.
func (d *Daemon) discardSession(dir, name string, reason error) {
	os.Remove(filepath.Join(dir, sessionFileName))
	d.obs.SessionsDiscarded.Inc()
	d.cfg.Logf("daemon: recovery discarded session %q: %v", name, reason)
}

// closeRecovered unwinds recoverSessions when startup fails later on.
func (d *Daemon) closeRecovered() {
	for id, srv := range d.servers {
		srv.Close()
		delete(d.servers, id)
		delete(d.dirs, id)
	}
}

// leaseEntry is one container's last-seen time (UnixNano), updated with
// a single atomic store per request.
type leaseEntry struct{ nanos atomic.Int64 }

// touch renews a container's session lease. No-op unless leasing is on.
func (d *Daemon) touch(id core.ContainerID) {
	if d.cfg.Lease <= 0 {
		return
	}
	e, ok := d.lastSeen.Load(id)
	if !ok {
		e, _ = d.lastSeen.LoadOrStore(id, &leaseEntry{})
	}
	e.(*leaseEntry).nanos.Store(d.clk.Now().UnixNano())
}

// reapLoop closes containers whose lease expired: no traffic (and no
// heartbeat) for longer than Config.Lease means the container died
// without a close signal, and its grant is reclaimed exactly as the
// plugin's close would. Checked at Lease/4 granularity, so a dead
// container is reaped within 1.25 leases.
func (d *Daemon) reapLoop() {
	defer close(d.reapDone)
	interval := d.cfg.Lease / 4
	if interval <= 0 {
		interval = d.cfg.Lease
	}
	for {
		select {
		case <-d.reapStop:
			return
		case <-d.clk.After(interval):
		}
		now := d.clk.Now()
		var expired []core.ContainerID
		d.lastSeen.Range(func(k, v any) bool {
			last := time.Unix(0, v.(*leaseEntry).nanos.Load())
			if now.Sub(last) > d.cfg.Lease {
				expired = append(expired, k.(core.ContainerID))
			}
			return true
		})
		for _, id := range expired {
			d.obs.LeaseExpiries.Inc()
			d.closeContainerKind(id, wal.KindLeaseExpire)
		}
	}
}

// Session liveness: when Config.Lease is set the daemon leases each
// session, so a container that died without a close signal is reaped
// after a grace window rather than pinning its grant forever. Any message
// on the container's socket renews the lease; the reaper's close goes
// through the log like the plugin's (wal.KindLeaseExpire).

package daemon

import (
	"sync/atomic"
	"time"

	"convgpu/internal/core"
	"convgpu/internal/wal"
)

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

// Node failure domains, daemon side: when the backend fails a node
// over, the daemon must keep its parked responders and the log in step
// with the migration — re-key tickets that moved, answer tickets that
// were admitted or evicted, append a migrate record for each container
// that moved, and evict the ones that could not through the same path
// restart recovery uses.

package daemon

import (
	"fmt"

	"convgpu/internal/core"
	"convgpu/internal/errs"
	"convgpu/internal/protocol"
	"convgpu/internal/wal"
)

// membership reports the backend's membership surface, when it has one.
func (d *Daemon) membership() (core.Membership, bool) {
	m, ok := d.cfg.Core.(core.Membership)
	return m, ok
}

// NodeStatuses reports every cluster node's membership state, or
// errNoMembership on a single-node backend.
func (d *Daemon) NodeStatuses() ([]core.NodeStatus, error) {
	m, ok := d.membership()
	if !ok {
		return nil, errNoMembership
	}
	return m.NodeStatuses(), nil
}

// handleFailover is the core.FailoverSource hook: called synchronously
// with each failover's report, while the backend's registration lock is
// held, so parked-responder bookkeeping is atomic with respect to new
// placements.
func (d *Daemon) handleFailover(rep core.FailoverReport) {
	d.obs.Failovers.Inc()
	d.obs.MigrationLatency.Observe(rep.Elapsed)
	now := d.clk.Now()

	type rel struct {
		respond func(*protocol.Message)
		msg     *protocol.Message
	}
	var rels []rel
	moved := make(map[core.ContainerID]bool, len(rep.Moves))
	for _, mv := range rep.Moves {
		moved[mv.ID] = true
	}

	rekeyed := make(map[parkedKey]bool)
	d.mu.Lock()
	for _, mv := range rep.Moves {
		// The device label for re-parked tickets: the GPU within the
		// surviving node the container re-registered on.
		device := 0
		if !mv.Evicted {
			device, _ = d.cfg.Core.Placement(mv.ID)
		}
		for _, tm := range mv.Tickets {
			k := parkedKey{mv.ID, tm.OldTicket}
			p, ok := d.parked[k]
			if !ok {
				continue // responder already released (connection died)
			}
			delete(d.parked, k)
			switch tm.Outcome {
			case core.TicketMigrated:
				// Still suspended, now on the surviving node: keep the
				// responder parked under its new ticket. The original
				// park time is kept — the caller has been waiting since
				// then, whichever node it was waiting on.
				d.obs.TicketsMigrated.Inc()
				nk := parkedKey{mv.ID, tm.NewTicket}
				d.parked[nk] = parkedResponder{
					respond: p.respond, conn: p.conn, at: p.at, device: device,
				}
				rekeyed[nk] = true
			case core.TicketAdmitted:
				d.obs.TicketsMigrated.Inc()
				d.obs.ObserveSuspendWait(p.device, now.Sub(p.at))
				m := protocol.AcquireMessage()
				m.OK = true
				m.Decision = protocol.DecisionAccept
				rels = append(rels, rel{p.respond, m})
			case core.TicketEvicted:
				d.obs.TicketsEvicted.Inc()
				d.obs.ObserveSuspendWait(p.device, now.Sub(p.at))
				m := protocol.AcquireMessage()
				m.Error = fmt.Sprintf("node %d down and no surviving capacity", rep.Node)
				m.Code = errs.Code(errs.ErrNodeDown)
				rels = append(rels, rel{p.respond, m})
			}
		}
	}
	// Sweep: a responder parked after the failover captured the dying
	// node's pending set references a ticket that no longer exists on
	// any member — it would otherwise wait forever. Answer it closed.
	// Entries just re-parked under their migrated ticket are NOT stale,
	// even though their container is in the moved set (and the fresh
	// node's ticket numbers routinely collide with the dead node's).
	for k, p := range d.parked {
		if !moved[k.id] || rekeyed[k] {
			continue
		}
		delete(d.parked, k)
		d.obs.TicketsEvicted.Inc()
		d.obs.ObserveSuspendWait(p.device, now.Sub(p.at))
		m := protocol.AcquireMessage()
		m.Error = fmt.Sprintf("node %d down; request lost in failover", rep.Node)
		m.Code = errs.Code(errs.ErrNodeDown)
		rels = append(rels, rel{p.respond, m})
	}
	d.mu.Unlock()

	for _, r := range rels {
		r.respond(r.msg)
	}

	// Session bookkeeping outside the parked lock: a migrated container's
	// migrate record folds to its new placement on replay (the tenant
	// binding travels with it, definition first); an evicted container's
	// session is invalidated exactly like an unservable one at restart.
	for _, mv := range rep.Moves {
		if mv.Evicted {
			d.evictContainer(mv.ID, rep.Node)
			continue
		}
		device, err := d.cfg.Core.Placement(mv.ID)
		if err != nil {
			continue
		}
		if err := d.persistTenant(mv.Tenant); err != nil {
			d.cfg.Logf("daemon: failover: persist tenant for %s: %v", mv.ID, err)
		}
		if err := d.walAppend(wal.Record{
			Kind: wal.KindMigrate, Container: string(mv.ID),
			Amount: int64(mv.Limit), Device: int32(device), Tenant: mv.Tenant.Name,
			Meta: fmt.Sprintf("node %d -> %d", mv.From, mv.To),
		}); err != nil {
			d.cfg.Logf("daemon: failover: persist migration %s: %v", mv.ID, err)
		}
		d.cfg.Logf("daemon: failover: migrated %s node %d -> %d (%d tickets)", mv.ID, mv.From, mv.To, len(mv.Tickets))
	}
}

// evictContainer ends one evicted container's life: its session record
// is discarded through the same path restart recovery uses for
// unservable sessions, and the life is retired as a close retires it.
// The dead node's scheduler went without a Close, so no core event ends
// the container's trace: the evict record here is its last, and its
// causal counter ends with it.
func (d *Daemon) evictContainer(id core.ContainerID, node int) {
	d.obs.Tracer().Record(d.clk.Now(), "evict", string(id), 0, 0, 0, 0)
	d.obs.Tracer().EndContainer(string(id))
	s := d.take(id, false)
	d.discardWALSession(id, fmt.Errorf("node %d down, no surviving capacity: %w", node, errs.ErrNodeDown))
	if s != nil {
		d.retire(id, s)
	}
}

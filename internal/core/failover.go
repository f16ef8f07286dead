package core

import (
	"time"

	"convgpu/internal/bytesize"
)

// This file defines the node failure-domain vocabulary shared between
// the cluster tier (which implements it), the daemon (which surfaces
// the admin verbs and reacts to failovers), and the observability
// layer. It lives in core so none of those packages must import the
// cluster package to talk about nodes.

// NodeState is one node's position in the membership view.
type NodeState int

const (
	// NodeUp: healthy, accepting registrations and serving traffic.
	NodeUp NodeState = iota
	// NodeSuspect: health probes are failing but the down threshold has
	// not been reached. Still serves traffic and accepts registrations.
	NodeSuspect
	// NodeDown: declared dead; its containers were failed over. The
	// slot holds a fresh, empty scheduler awaiting revival.
	NodeDown
	// NodeDraining: administratively refusing new registrations while
	// existing grants run to completion.
	NodeDraining
)

// String renders the state for logs, gauges and the nodes verb.
func (s NodeState) String() string {
	switch s {
	case NodeUp:
		return "up"
	case NodeSuspect:
		return "suspect"
	case NodeDown:
		return "down"
	case NodeDraining:
		return "draining"
	default:
		return "unknown"
	}
}

// NodeStatus describes one node in a membership view.
type NodeStatus struct {
	Index      int           `json:"index"`
	Name       string        `json:"name"`
	State      string        `json:"state"`
	Containers int           `json:"containers"`
	Capacity   bytesize.Size `json:"capacity"`
	Free       bytesize.Size `json:"free"`
	// Failovers counts how many times this node slot was declared down
	// and its containers migrated off it.
	Failovers uint64 `json:"failovers"`
}

// Membership is the admin surface a cluster-tier scheduler exposes:
// the daemon type-asserts its backend to it to answer the nodes /
// drain / revive admin verbs, and the facade re-exports it.
type Membership interface {
	// NodeStatuses reports every node's membership state.
	NodeStatuses() []NodeStatus
	// Drain moves a node to draining: new registrations avoid it while
	// its existing grants complete.
	Drain(node int) error
	// Revive returns a drained or down node to service.
	Revive(node int) error
}

// TicketOutcome says what happened to one parked ticket during a node
// failover. Every pre-kill ticket of a dead node gets exactly one
// outcome — the headline invariant is that none is silently lost.
type TicketOutcome int

const (
	// TicketMigrated: re-queued on the surviving node; the request is
	// parked again under NewTicket.
	TicketMigrated TicketOutcome = iota
	// TicketAdmitted: the surviving node had room and admitted the
	// request immediately.
	TicketAdmitted
	// TicketEvicted: no surviving capacity; the caller is observably
	// rejected with ErrNodeDown.
	TicketEvicted
)

// String renders the outcome for logs and reports.
func (o TicketOutcome) String() string {
	switch o {
	case TicketMigrated:
		return "migrated"
	case TicketAdmitted:
		return "admitted"
	case TicketEvicted:
		return "evicted"
	default:
		return "unknown"
	}
}

// TicketMove is one parked ticket's journey through a failover.
type TicketMove struct {
	OldTicket Ticket
	// NewTicket is the ticket on the surviving node (TicketMigrated
	// only).
	NewTicket Ticket
	PID       int
	Size      bytesize.Size
	Outcome   TicketOutcome
}

// ContainerMove is one container's journey through a failover: either
// re-registered on node To with its parked requests re-queued, or
// evicted when no surviving node could hold its limit.
type ContainerMove struct {
	ID    ContainerID
	Limit bytesize.Size
	// Tenant is the container's tenant identity, carried across the
	// failover so the surviving node re-registers it under the same
	// quota/priority accounting (zero for the default tenant).
	Tenant Tenant
	From   int
	// To is the surviving node, or -1 when Evicted.
	To      int
	Evicted bool
	// Granted is the fresh registration's immediate grant (allocations
	// died with the node; the container restarts from a clean seat).
	Granted bytesize.Size
	Tickets []TicketMove
}

// FailoverReport is the complete, ordered account of one node failover.
// Containers appear in ID order; tickets in park order.
type FailoverReport struct {
	Node    int
	Moves   []ContainerMove
	Elapsed time.Duration
}

// FailoverSource is implemented by backends that fail nodes over; the
// daemon registers a hook to re-key parked responders, answer evicted
// tickets and append each move to its log (a migrate or an evict
// record) in step with the migration.
type FailoverSource interface {
	// OnFailover installs fn, called synchronously with each failover's
	// report (while the backend's registration lock is held, so the
	// report is atomic with respect to new placements).
	OnFailover(fn func(FailoverReport))
}

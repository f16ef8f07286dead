package core

import (
	"fmt"
	"time"

	"convgpu/internal/bytesize"
)

// ErrUnknownDevice reports a device index the scheduler does not serve —
// a session recorded on device 3 cannot be restored by a daemon running
// with two devices.
var ErrUnknownDevice = fmt.Errorf("core: unknown device")

// Scheduler is the surface the daemon (and the facade above it) consumes
// from a scheduling backend. The single-device *State implements it
// directly; multigpu.State and cluster.Cluster implement it by routing
// each container's operations to the member that owns its placement.
//
// The device plane is three methods: Devices describes the per-device
// pools, Placement reports which device a registered container landed
// on, and RestorePlacement pins a recovering container back onto the
// device its session's records in the write-ahead log name before
// EnsureRegistered re-admits it — the order the daemon's recovery path
// uses.
type Scheduler interface {
	// Admission and the allocation lifecycle (paper §III-A).
	Register(id ContainerID, limit bytesize.Size) (bytesize.Size, error)
	RequestAlloc(id ContainerID, pid int, size bytesize.Size) (AllocResult, error)
	ConfirmAlloc(id ContainerID, pid int, addr uint64, size bytesize.Size) error
	AbortAlloc(id ContainerID, pid int, size bytesize.Size) (Update, error)
	Free(id ContainerID, pid int, addr uint64) (bytesize.Size, Update, error)
	// RequestAllocAt and FreeAt stamp the request's own event at, a
	// clock.Real reading the caller took (State.RequestAllocAt).
	RequestAllocAt(id ContainerID, pid int, size bytesize.Size, at time.Time) (AllocResult, error)
	FreeAt(id ContainerID, pid int, addr uint64, at time.Time) (bytesize.Size, Update, error)
	ProcessExit(id ContainerID, pid int) (bytesize.Size, Update, error)
	Close(id ContainerID) (bytesize.Size, Update, error)
	MemInfo(id ContainerID) (free, total bytesize.Size, err error)

	// Tenant plane: registration carrying a tenant identity (the zero
	// Tenant is the default tenant and behaves exactly like the plain
	// calls), plus the per-tenant usage aggregation the admin surfaces
	// render.
	RegisterTenant(id ContainerID, limit bytesize.Size, t Tenant) (bytesize.Size, error)
	EnsureRegisteredTenant(id ContainerID, limit bytesize.Size, t Tenant) (bytesize.Size, error)
	Tenants() []TenantUsage

	// Session recovery (PR 2): idempotent re-registration, replayed
	// allocations, and parked-ticket cleanup when a connection dies.
	EnsureRegistered(id ContainerID, limit bytesize.Size) (bytesize.Size, error)
	Restore(id ContainerID, pid int, addr uint64, size bytesize.Size) error
	DropPending(id ContainerID, tickets []Ticket) (Update, error)
	// PendingRequests lists a container's suspended requests in park
	// order — the failover path reads them off a dying node to re-queue
	// them, ticket by ticket, on a surviving one.
	PendingRequests(id ContainerID) ([]PendingRequest, error)

	// Introspection and observability (PR 3).
	Info(id ContainerID) (ContainerInfo, error)
	Snapshot() []ContainerInfo
	SetObserver(fn func(EventRecord))
	PausedContainers() int
	AlgorithmName() string
	Capacity() bytesize.Size
	PoolFree() bytesize.Size
	TotalUsed() bytesize.Size
	CheckInvariants() error

	// Device plane.
	Devices() []DeviceInfo
	Placement(id ContainerID) (int, error)
	RestorePlacement(id ContainerID, device int) error
}

// PendingRequest is one suspended allocation as PendingRequests reports
// it: the parked ticket plus the request it stands for.
type PendingRequest struct {
	Ticket Ticket
	PID    int
	Size   bytesize.Size
}

// DeviceInfo summarizes one device's pool for placement policies,
// per-device gauges and the dump introspection document.
type DeviceInfo struct {
	// Index identifies the device.
	Index int
	// Capacity is the device's schedulable memory.
	Capacity bytesize.Size
	// PoolFree is memory not granted to any container on the device.
	PoolFree bytesize.Size
	// Containers counts containers placed on the device.
	Containers int
}

var _ Scheduler = (*State)(nil)

// Devices describes this state's single device: index Config.DeviceIndex
// (0 unless a multi-device scheduler set it), the full configured
// capacity, and every registered container.
func (s *State) Devices() []DeviceInfo {
	s.lockAll()
	n := 0
	for i := range s.shards {
		n += len(s.shards[i].containers)
	}
	d := DeviceInfo{
		Index:      s.cfg.DeviceIndex,
		Capacity:   s.cfg.Capacity,
		PoolFree:   s.pool,
		Containers: n,
	}
	s.unlockAll()
	return []DeviceInfo{d}
}

// Placement reports the device a registered container is served by —
// always Config.DeviceIndex for a single-device state.
func (s *State) Placement(id ContainerID) (int, error) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	_, ok := sh.containers[id]
	sh.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownContainer, id)
	}
	return s.cfg.DeviceIndex, nil
}

// PendingRequests lists id's suspended requests in park order. The
// pending slice is only mutated under the global write lock, so the
// shard read lock is enough to copy it consistently.
func (s *State) PendingRequests(id ContainerID) ([]PendingRequest, error) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	c, ok := sh.containers[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownContainer, id)
	}
	out := make([]PendingRequest, len(c.pending))
	for i, p := range c.pending {
		out[i] = PendingRequest{Ticket: p.ticket, PID: p.pid, Size: p.size}
	}
	return out, nil
}

// RestorePlacement pins a recovering container to the device its
// session's records in the write-ahead log name. A single-device state
// serves exactly one device, so this only validates the index; the
// subsequent EnsureRegistered does the actual re-admission.
func (s *State) RestorePlacement(id ContainerID, device int) error {
	if device != s.cfg.DeviceIndex {
		return fmt.Errorf("%w: %d (state serves device %d)", ErrUnknownDevice, device, s.cfg.DeviceIndex)
	}
	return nil
}

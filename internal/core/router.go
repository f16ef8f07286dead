package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"convgpu/internal/bytesize"
)

// Router fans a Scheduler's per-container operations out to the member
// scheduler that owns each container's placement, and aggregates the
// whole-scheduler views (snapshots, pools, invariants) across
// all members. multigpu.State embeds it with per-device *State members;
// cluster.Cluster embeds it with per-node multigpu.State members — the
// placement decision itself (Register) stays with the embedding type,
// which records the outcome with SetPlacement.
//
// Router does not implement Register or EnsureRegistered: admitting a
// container is a placement decision, so the embedding type supplies
// both (EnsureRegistered typically routes when the placement is known
// and falls back to Register when it is not).
type Router struct {
	// memberNoun names a member in aggregated errors: "device" for the
	// multi-GPU scheduler, "node" for the cluster.
	memberNoun string

	// mu guards placement, members and observer. members is replaced
	// wholesale (copy-on-write) by ReplaceMember, so a slice header read
	// under the lock stays valid to iterate after release.
	mu        sync.RWMutex
	members   []Scheduler
	placement map[ContainerID]int
	observer  func(EventRecord)
}

// NewRouter builds a router over members. memberNoun names a member in
// invariant-violation messages ("device", "node").
func NewRouter(members []Scheduler, memberNoun string) *Router {
	return &Router{
		members:    members,
		memberNoun: memberNoun,
		placement:  make(map[ContainerID]int),
	}
}

// membersView snapshots the member slice. ReplaceMember swaps the slice
// rather than mutating it in place, so iterating the snapshot without
// the lock is safe.
func (r *Router) membersView() []Scheduler {
	r.mu.RLock()
	ms := r.members
	r.mu.RUnlock()
	return ms
}

// NumMembers returns how many member schedulers the router fans out to.
func (r *Router) NumMembers() int { return len(r.membersView()) }

// Member returns the i-th member scheduler.
func (r *Router) Member(i int) Scheduler { return r.membersView()[i] }

// ReplaceMember swaps member i for fresh — the failover path installs
// an empty scheduler in a dead node's slot — and forgets the placements
// in drop (the dead member's containers, which the caller re-places or
// evicts). The router's remembered observer is installed on the fresh
// member so its events keep flowing to the same sink.
func (r *Router) ReplaceMember(i int, fresh Scheduler, drop []ContainerID) {
	r.mu.Lock()
	ms := make([]Scheduler, len(r.members))
	copy(ms, r.members)
	ms[i] = fresh
	r.members = ms
	for _, id := range drop {
		delete(r.placement, id)
	}
	fn := r.observer
	r.mu.Unlock()
	if fn != nil {
		fresh.SetObserver(fn)
	}
}

// PlacementsOn lists the containers placed on member i, sorted by ID so
// callers iterate them deterministically.
func (r *Router) PlacementsOn(i int) []ContainerID {
	r.mu.RLock()
	var out []ContainerID
	for id, m := range r.placement {
		if m == i {
			out = append(out, id)
		}
	}
	r.mu.RUnlock()
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// SetPlacement records that id's operations route to member m — called
// by the embedding type after a successful Register on that member.
func (r *Router) SetPlacement(id ContainerID, m int) {
	r.mu.Lock()
	r.placement[id] = m
	r.mu.Unlock()
}

// PlacementIndex reports which member owns id.
func (r *Router) PlacementIndex(id ContainerID) (int, error) {
	r.mu.RLock()
	m, ok := r.placement[id]
	r.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownContainer, id)
	}
	return m, nil
}

// memberFor resolves id to its owning member. One RLock covers both the
// placement lookup and the member read, so a concurrent ReplaceMember
// cannot hand back the dead member for a re-placed container.
func (r *Router) memberFor(id ContainerID) (Scheduler, error) {
	r.mu.RLock()
	m, ok := r.placement[id]
	var sched Scheduler
	if ok {
		sched = r.members[m]
	}
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownContainer, id)
	}
	return sched, nil
}

// --- routed per-container operations ---

// RequestAlloc routes to the container's member.
func (r *Router) RequestAlloc(id ContainerID, pid int, size bytesize.Size) (AllocResult, error) {
	return r.RequestAllocAt(id, pid, size, time.Time{})
}

// RequestAllocAt routes to the container's member.
func (r *Router) RequestAllocAt(id ContainerID, pid int, size bytesize.Size, at time.Time) (AllocResult, error) {
	m, err := r.memberFor(id)
	if err != nil {
		return AllocResult{}, err
	}
	return m.RequestAllocAt(id, pid, size, at)
}

// ConfirmAlloc routes to the container's member.
func (r *Router) ConfirmAlloc(id ContainerID, pid int, addr uint64, size bytesize.Size) error {
	m, err := r.memberFor(id)
	if err != nil {
		return err
	}
	return m.ConfirmAlloc(id, pid, addr, size)
}

// AbortAlloc routes to the container's member.
func (r *Router) AbortAlloc(id ContainerID, pid int, size bytesize.Size) (Update, error) {
	m, err := r.memberFor(id)
	if err != nil {
		return Update{}, err
	}
	return m.AbortAlloc(id, pid, size)
}

// Free routes to the container's member.
func (r *Router) Free(id ContainerID, pid int, addr uint64) (bytesize.Size, Update, error) {
	return r.FreeAt(id, pid, addr, time.Time{})
}

// FreeAt routes to the container's member.
func (r *Router) FreeAt(id ContainerID, pid int, addr uint64, at time.Time) (bytesize.Size, Update, error) {
	m, err := r.memberFor(id)
	if err != nil {
		return 0, Update{}, err
	}
	return m.FreeAt(id, pid, addr, at)
}

// ProcessExit routes to the container's member.
func (r *Router) ProcessExit(id ContainerID, pid int) (bytesize.Size, Update, error) {
	m, err := r.memberFor(id)
	if err != nil {
		return 0, Update{}, err
	}
	return m.ProcessExit(id, pid)
}

// Close routes to the container's member and forgets the placement, so
// a re-registered ID is placed afresh.
func (r *Router) Close(id ContainerID) (bytesize.Size, Update, error) {
	m, err := r.memberFor(id)
	if err != nil {
		return 0, Update{}, err
	}
	returned, u, err := m.Close(id)
	if err == nil {
		r.mu.Lock()
		delete(r.placement, id)
		r.mu.Unlock()
	}
	return returned, u, err
}

// MemInfo routes to the container's member: free/total describe the
// container's own device, which is what the wrapper's cudaMemGetInfo
// must report.
func (r *Router) MemInfo(id ContainerID) (free, total bytesize.Size, err error) {
	m, err := r.memberFor(id)
	if err != nil {
		return 0, 0, err
	}
	return m.MemInfo(id)
}

// Restore routes a recovery replay to the container's member.
func (r *Router) Restore(id ContainerID, pid int, addr uint64, size bytesize.Size) error {
	m, err := r.memberFor(id)
	if err != nil {
		return err
	}
	return m.Restore(id, pid, addr, size)
}

// DropPending routes parked-ticket cleanup to the container's member.
func (r *Router) DropPending(id ContainerID, tickets []Ticket) (Update, error) {
	m, err := r.memberFor(id)
	if err != nil {
		return Update{}, err
	}
	return m.DropPending(id, tickets)
}

// Info routes to the container's member.
func (r *Router) Info(id ContainerID) (ContainerInfo, error) {
	m, err := r.memberFor(id)
	if err != nil {
		return ContainerInfo{}, err
	}
	return m.Info(id)
}

// PendingRequests routes pending-ticket introspection to the
// container's member.
func (r *Router) PendingRequests(id ContainerID) ([]PendingRequest, error) {
	m, err := r.memberFor(id)
	if err != nil {
		return nil, err
	}
	return m.PendingRequests(id)
}

// --- aggregated whole-scheduler views ---

// Snapshot merges every member's snapshot, ordered by creation time
// (ties broken by ID) so the combined view is deterministic.
func (r *Router) Snapshot() []ContainerInfo {
	var out []ContainerInfo
	for _, m := range r.membersView() {
		out = append(out, m.Snapshot()...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].CreatedAt.Equal(out[j].CreatedAt) {
			return out[i].CreatedAt.Before(out[j].CreatedAt)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// SetObserver installs fn on every member (and on members installed
// later by ReplaceMember, so events keep flowing across failovers);
// records from different members interleave only as precisely as the
// members' own locks allow.
func (r *Router) SetObserver(fn func(EventRecord)) {
	r.mu.Lock()
	r.observer = fn
	ms := r.members
	r.mu.Unlock()
	for _, m := range ms {
		m.SetObserver(fn)
	}
}

// Tenants merges the members' per-tenant aggregations by tenant name,
// summing the usage counters; the attribute fields (weight, priority,
// quota, guarantee) come from whichever member reported the tenant
// first — registrations carry the same attributes to every member, so
// they agree. Sorted by name. Like Register, the tenant-carrying
// registrations stay with the embedding type: they are placement
// decisions.
func (r *Router) Tenants() []TenantUsage {
	byName := make(map[string]*TenantUsage)
	for _, m := range r.membersView() {
		for _, u := range m.Tenants() {
			have, ok := byName[u.Name]
			if !ok {
				c := u
				byName[u.Name] = &c
				continue
			}
			have.Containers += u.Containers
			have.Suspended += u.Suspended
			have.Grant += u.Grant
			have.Used += u.Used
			have.Pending += u.Pending
		}
	}
	out := make([]TenantUsage, 0, len(byName))
	for _, u := range byName {
		out = append(out, *u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// PausedContainers sums the members' suspended-container counts.
func (r *Router) PausedContainers() int {
	var n int
	for _, m := range r.membersView() {
		n += m.PausedContainers()
	}
	return n
}

// AlgorithmName returns the members' (shared) redistribution algorithm.
func (r *Router) AlgorithmName() string {
	ms := r.membersView()
	if len(ms) == 0 {
		return ""
	}
	return ms[0].AlgorithmName()
}

// Capacity sums the members' capacities.
func (r *Router) Capacity() bytesize.Size {
	var total bytesize.Size
	for _, m := range r.membersView() {
		total += m.Capacity()
	}
	return total
}

// PoolFree sums the members' unallocated pools.
func (r *Router) PoolFree() bytesize.Size {
	var total bytesize.Size
	for _, m := range r.membersView() {
		total += m.PoolFree()
	}
	return total
}

// TotalUsed sums the members' tracked usage.
func (r *Router) TotalUsed() bytesize.Size {
	var total bytesize.Size
	for _, m := range r.membersView() {
		total += m.TotalUsed()
	}
	return total
}

// CheckInvariants checks every member, attributing a violation to the
// member that broke it.
func (r *Router) CheckInvariants() error {
	for i, m := range r.membersView() {
		if err := m.CheckInvariants(); err != nil {
			return fmt.Errorf("%s %d: %w", r.memberNoun, i, err)
		}
	}
	return nil
}

// Devices concatenates the members' device views. For the multi-GPU
// scheduler the indices are globally unique (member i serves device i);
// a cluster repeats indices across nodes and disambiguates with
// NodePlacement.
func (r *Router) Devices() []DeviceInfo {
	ms := r.membersView()
	out := make([]DeviceInfo, 0, len(ms))
	for _, m := range ms {
		out = append(out, m.Devices()...)
	}
	return out
}

// Placement reports the device serving id, per the owning member.
func (r *Router) Placement(id ContainerID) (int, error) {
	m, err := r.memberFor(id)
	if err != nil {
		return 0, err
	}
	return m.Placement(id)
}

// RestorePlacement pins a recovering container onto the member that
// serves the recorded device, before EnsureRegistered re-admits it. A
// container with a live placement is re-pinned on its current member
// (which validates the device); otherwise the first member that accepts
// the device claims the container.
func (r *Router) RestorePlacement(id ContainerID, device int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.placement[id]; ok {
		return r.members[m].RestorePlacement(id, device)
	}
	for i, m := range r.members {
		if err := m.RestorePlacement(id, device); err == nil {
			r.placement[id] = i
			return nil
		}
	}
	return fmt.Errorf("%w: %d (%d %ss served)", ErrUnknownDevice, device, len(r.members), r.memberNoun)
}

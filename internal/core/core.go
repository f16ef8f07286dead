// Package core implements the GPU memory scheduler at the heart of
// ConVGPU (paper §III-D): the host-side component that decides, for every
// GPU memory allocation a container attempts, whether to accept it,
// suspend it until memory becomes available, or reject it.
//
// The scheduler maintains, per container, the creation-time memory
// request (the limit), the memory currently assigned to the container
// (the grant) and the memory actually in use. Invariants, enforced and
// property-tested:
//
//	0 <= used_i <= grant_i <= limit_i         for every container i
//	Σ grant_i <= capacity
//
// A container whose allocation cannot be served within its grant is
// paused — its response is withheld — until a scheduling algorithm
// (FIFO, Best-Fit, Recent-Use or Random) assigns it memory freed by
// terminating containers. Because a container never waits for memory
// beyond its creation-time request, and grants are never revoked,
// admitted containers that received their full request always run to
// completion: the middleware turns the unmanaged case's failures and
// deadlocks into bounded waiting.
//
// The core is a synchronous state machine. Suspension is represented by
// tickets: RequestAlloc returns Suspend with a ticket, and later calls
// that free memory return the tickets that were admitted as a result.
// The daemon (package daemon) maps tickets to withheld socket responses;
// the discrete-event simulator (package sim) maps them to blocked virtual
// processes. All methods are safe for concurrent use.
//
// Locking: the container table is split into numShards shards, each
// with its own RWMutex, plus a per-container mutex. Operations that can
// move memory between containers (suspension, redistribution, register,
// close) take every shard's write lock in index order — lockAll — which
// excludes everything else exactly as a single global write lock would.
// The common case — an allocation that fits the container's existing
// grant, a free while nothing is paused, a confirm, a meminfo — touches
// only one container's state and runs on a fast path under that
// container's shard read lock plus its mutex, so independent containers
// proceed in parallel without even sharing a reader-count cache line
// unless they hash to the same shard (see DESIGN.md "Hot path").
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/clock"
)

// ContainerID identifies a container (Docker container ID in the real
// system).
type ContainerID string

// Errors reported by the scheduler.
var (
	ErrUnknownContainer     = errors.New("core: unknown container")
	ErrDuplicateContainer   = errors.New("core: container already registered")
	ErrLimitExceedsCapacity = errors.New("core: memory limit exceeds GPU capacity")
	ErrInvalidLimit         = errors.New("core: memory limit must be positive")
	ErrInvalidSize          = errors.New("core: allocation size must be positive")
	ErrUnknownAddr          = errors.New("core: unknown allocation address")
	ErrUnknownPID           = errors.New("core: unknown pid")
	ErrNotCharged           = errors.New("core: confirm/abort without an accepted request")
	ErrLimitMismatch        = errors.New("core: re-registration limit differs from the original")
	ErrRestoreInfeasible    = errors.New("core: cannot restore allocation within limit and capacity")
)

// DefaultContextOverhead is the GPU memory CUDA consumes when a process
// first allocates: 64 MiB of process data plus 2 MiB of CUDA context
// (paper §III-D).
const DefaultContextOverhead = 66 * bytesize.MiB

// Decision is the scheduler's verdict on an allocation request.
type Decision int

// Decisions.
const (
	// Accept: the memory is charged; the wrapper may call the real CUDA
	// allocation.
	Accept Decision = iota
	// Suspend: the request is parked; the caller waits for its ticket to
	// be admitted by a later redistribution.
	Suspend
	// Reject: the request exceeds the container's own limit and can never
	// be satisfied; the wrapper returns cudaErrorMemoryAllocation.
	Reject
)

func (d Decision) String() string {
	switch d {
	case Accept:
		return "accept"
	case Suspend:
		return "suspend"
	case Reject:
		return "reject"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Ticket identifies a suspended allocation request.
type Ticket uint64

// AllocResult is the outcome of RequestAlloc.
type AllocResult struct {
	Decision Decision
	// Ticket is set when Decision == Suspend.
	Ticket Ticket
}

// Admitted names a formerly suspended request that has now been charged
// and may proceed to the real allocation.
type Admitted struct {
	Container ContainerID
	Ticket    Ticket
}

// Update reports the side effects of an operation that freed memory:
// which suspended requests were admitted, and which were cancelled
// because their container closed.
type Update struct {
	Admitted  []Admitted
	Cancelled []Admitted
}

// Config configures a scheduler.
type Config struct {
	// Capacity is the schedulable GPU memory.
	Capacity bytesize.Size
	// DeviceIndex identifies the device this state schedules, stamped
	// into every event record and reported by Devices/Placement. A
	// multi-device scheduler builds one State per device with ascending
	// indices; standalone states leave it 0.
	DeviceIndex int
	// ContextOverhead is charged for the first allocation of each process
	// (default DefaultContextOverhead). It counts against the container's
	// limit, so limits must include per-process headroom.
	ContextOverhead bytesize.Size
	// Algorithm selects paused containers during redistribution
	// (default FIFO{}).
	Algorithm Algorithm
	// Clock provides time for suspension metrics (default the wall
	// clock). The experiment simulator injects its virtual clock.
	Clock clock.Clock
	// PersistentGrants disables the reclamation of paused containers'
	// unused assignments during redistribution: once memory is assigned
	// to a container it stays assigned until the container closes. This
	// reading of the paper strands partial grants with paused containers
	// and can wedge Recent-Use and Random under heavy load (the ablation
	// benches quantify it); the default (reclaiming) semantics wedge
	// single-allocation workloads only in the window Stalled describes.
	PersistentGrants bool
	// FaultTolerant enables the rescue pass of the authors' prior study
	// ("Fault-tolerant Scheduler for Shareable Virtualized GPU
	// Resource", SC16 poster [10]): whenever a redistribution admits
	// nothing while paused containers remain, every paused container's
	// unused assignment is forcibly reclaimed and the pending request
	// with the smallest charge is admitted first, guaranteeing progress
	// whenever progress is possible at all — even under
	// PersistentGrants or multi-allocation hold-and-wait.
	FaultTolerant bool
}

type pendingReq struct {
	ticket Ticket
	pid    int
	size   bytesize.Size // raw request size; overhead is computed at admit time
	at     time.Time     // when the request was parked (admit-wait accounting)
}

type procState struct {
	charged bool // context overhead charged
	allocs  map[uint64]bytesize.Size
	// accepted tracks charges awaiting Confirm/Abort: per accepted
	// request, the charged size (excluding overhead).
	accepted []bytesize.Size
}

type containerState struct {
	// mu serializes fast-path access to this container's mutable fields.
	// Fast paths hold the state's read lock plus mu; slow paths hold the
	// state's write lock, which excludes every fast path, and so never
	// take mu.
	mu sync.Mutex

	id         ContainerID
	tenant     Tenant
	limit      bytesize.Size
	grant      bytesize.Size
	used       bytesize.Size
	createdSeq uint64
	createdAt  time.Time
	suspendSeq uint64
	pending    []pendingReq
	procs      map[int]*procState

	// Suspension metrics: total time with >= 1 pending request.
	suspendedSince time.Time
	suspendedTotal time.Duration
	everSuspended  bool

	obsSlot any // the observer's (EventRecord.Slot), under the same locks
}

// numShards is the number of container-table shards.
// A power of two so ContainerID hashes index by mask. Eight shards keep
// the lockAll slow path cheap while spreading unrelated containers'
// fast paths across distinct locks and cache lines.
const numShards = 8

// shard is one slice of the container table with its own lock. Fast
// paths hold mu.RLock plus the container's mutex; slow paths hold every
// shard's write lock (State.lockAll).
type shard struct {
	mu         sync.RWMutex
	containers map[ContainerID]*containerState

	// Pad shards apart so two cores hammering adjacent shards' reader
	// counts do not false-share a cache line.
	_ [32]byte
}

// State is the scheduler. Create it with New.
type State struct {
	cfg    Config
	shards [numShards]shard

	// observer receives every event record (see SetObserver). Written
	// only under lockAll; read by fast paths under a shard read lock,
	// which lockAll excludes.
	observer func(EventRecord)
	// realClock: Config.Clock stamps in clock.Real's timebase (Real,
	// Coarse), so a caller's stamp (RequestAllocAt) may stand in for it.
	realClock bool

	// The fields below are global scheduler state touched only by slow
	// paths, which hold every shard's write lock — lockAll is their
	// mutual exclusion, so they need no lock of their own.
	pool       bytesize.Size // capacity not granted to any container
	nextSeq    uint64
	nextTicket Ticket
	closedIDs  map[ContainerID]bool

	// namedTenants counts registered containers bound to a named (non
	// default) tenant. Zero means every tenant-aware clamp and the
	// preemption hook are skipped, keeping the single-tenant scheduler
	// byte-identical to its pre-tenant behavior. Changes only under
	// lockAll (register, close, tenant adoption).
	namedTenants int

	// pausedCount counts containers with at least one pending request.
	// It changes only under lockAll (suspension and the three
	// pending-draining paths all hold it), so a fast path holding any
	// shard's read lock observes a stable value: zero means no free can
	// admit anything, making the fast Free's empty Update exact.
	pausedCount atomic.Int64
}

// shardIndex hashes id onto a shard (FNV-1a, masked).
func shardIndex(id ContainerID) int {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return int(h & (numShards - 1))
}

// shardFor returns the shard owning id.
func (s *State) shardFor(id ContainerID) *shard { return &s.shards[shardIndex(id)] }

// lockAll takes every shard's write lock in index order — the slow
// paths' global exclusion. Acquiring in a fixed order cannot deadlock
// against other lockAll callers, and holding all write locks excludes
// every fast path exactly as the old single write lock did.
func (s *State) lockAll() {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
}

// unlockAll releases what lockAll took.
func (s *State) unlockAll() {
	for i := numShards - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
}

// lookupLocked finds id's container. Callers hold id's shard lock in
// either mode (lockAll included).
func (s *State) lookupLocked(id ContainerID) (*containerState, bool) {
	c, ok := s.shardFor(id).containers[id]
	return c, ok
}

// New creates a scheduler. Capacity must be positive.
func New(cfg Config) (*State, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("core: capacity must be positive, got %v", cfg.Capacity)
	}
	if cfg.ContextOverhead == 0 {
		cfg.ContextOverhead = DefaultContextOverhead
	}
	if cfg.ContextOverhead < 0 {
		return nil, fmt.Errorf("core: negative context overhead %v", cfg.ContextOverhead)
	}
	if cfg.Algorithm == nil {
		cfg.Algorithm = FIFO{}
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	s := &State{
		cfg:       cfg,
		pool:      cfg.Capacity,
		closedIDs: make(map[ContainerID]bool),
		realClock: cfg.Clock == clock.Clock(clock.Real{}) || cfg.Clock == clock.Clock(clock.Coarse{}),
	}
	for i := range s.shards {
		s.shards[i].containers = make(map[ContainerID]*containerState)
	}
	return s, nil
}

// MustNew is New for known-good configurations (tests, examples).
func MustNew(cfg Config) *State {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Capacity returns the configured schedulable memory.
func (s *State) Capacity() bytesize.Size { return s.cfg.Capacity }

// AlgorithmName returns the active redistribution algorithm's name.
func (s *State) AlgorithmName() string { return s.cfg.Algorithm.Name() }

// Register admits a new container with its creation-time memory request
// (paper: sent by the customized nvidia-docker before the container is
// created). It returns the memory granted immediately, which may be
// partial (Fig. 3b) or zero. The container belongs to the default
// tenant; RegisterTenant carries a tenant identity.
func (s *State) Register(id ContainerID, limit bytesize.Size) (granted bytesize.Size, err error) {
	return s.RegisterTenant(id, limit, Tenant{})
}

// EnsureRegistered is Register that tolerates the container already
// being known: it returns the existing grant untouched when the limit
// matches (no double-counting) and ErrLimitMismatch when it does not.
// The daemon uses it to re-adopt persisted sessions after a restart —
// whether the scheduler state survived (same core) or is being rebuilt.
func (s *State) EnsureRegistered(id ContainerID, limit bytesize.Size) (granted bytesize.Size, err error) {
	return s.EnsureRegisteredTenant(id, limit, Tenant{})
}

// registerLocked is the shared body of Register and EnsureRegistered
// (and their tenant-carrying variants). The caller holds lockAll and
// has established that id is free.
func (s *State) registerLocked(id ContainerID, limit bytesize.Size, t Tenant) (bytesize.Size, error) {
	if limit <= 0 {
		return 0, ErrInvalidLimit
	}
	if limit > s.cfg.Capacity {
		return 0, fmt.Errorf("%w: %v > %v", ErrLimitExceedsCapacity, limit, s.cfg.Capacity)
	}
	s.nextSeq++
	c := &containerState{
		id:         id,
		tenant:     t,
		limit:      limit,
		createdSeq: s.nextSeq,
		createdAt:  s.cfg.Clock.Now(),
		procs:      make(map[int]*procState),
	}
	c.grant = limit
	if c.grant > s.pool {
		c.grant = s.pool
	}
	if t.Name != "" || s.namedTenants > 0 {
		c.grant = s.clampTakeLocked(c, c.grant)
	}
	s.pool -= c.grant
	s.shardFor(id).containers[id] = c
	if t.Name != "" {
		s.namedTenants++
	}
	delete(s.closedIDs, id)
	s.logEvent(EvRegister, c, 0, c.grant)
	return c.grant, nil
}

// chargeFor computes what admitting (pid, size) costs the container:
// the raw size plus, for the process's first allocation, the context
// overhead.
func (s *State) chargeFor(c *containerState, pid int, size bytesize.Size) bytesize.Size {
	if p, ok := c.procs[pid]; ok && p.charged {
		return size
	}
	return size + s.cfg.ContextOverhead
}

func (s *State) proc(c *containerState, pid int) *procState {
	p, ok := c.procs[pid]
	if !ok {
		p = &procState{allocs: make(map[uint64]bytesize.Size)}
		c.procs[pid] = p
	}
	return p
}

// admit charges an accepted request to the container.
func (s *State) admit(c *containerState, pid int, size bytesize.Size) {
	charge := s.chargeFor(c, pid, size)
	c.used += charge
	p := s.proc(c, pid)
	p.charged = true
	p.accepted = append(p.accepted, size)
}

// RequestAlloc handles an allocation request of the given (already
// pitch/managed-adjusted) size from a process inside a container.
func (s *State) RequestAlloc(id ContainerID, pid int, size bytesize.Size) (AllocResult, error) {
	return s.RequestAllocAt(id, pid, size, time.Time{})
}

// RequestAllocAt is RequestAlloc whose accept, reject or suspend event is
// stamped at, a clock.Real reading the caller took (the daemon's: when the
// request was read). A zero at, or a Config.Clock in another timebase (a
// manual one), reads Config.Clock instead.
func (s *State) RequestAllocAt(id ContainerID, pid int, size bytesize.Size, at time.Time) (AllocResult, error) {
	if res, done, err := s.fastRequestAlloc(id, pid, size, at); done {
		return res, err
	}
	s.lockAll()
	defer s.unlockAll()
	c, ok := s.lookupLocked(id)
	if !ok {
		return AllocResult{}, fmt.Errorf("%w: %s", ErrUnknownContainer, id)
	}
	if size <= 0 {
		return AllocResult{}, ErrInvalidSize
	}
	charge := s.chargeFor(c, pid, size)
	if c.used+charge > c.limit {
		// Exceeds the container's own creation-time request: deny the
		// call (the paper's "rejects if the memory is already exceeded").
		s.logEventT(at, EvReject, c, pid, size, 0, 0)
		return AllocResult{Decision: Reject}, nil
	}
	if c.used+charge > c.grant {
		// Top up from the unassigned pool first: memory nobody holds must
		// not keep a container waiting.
		need := c.used + charge - c.grant
		take := need
		if take > s.pool {
			take = s.pool
		}
		if s.namedTenants > 0 {
			take = s.clampTakeLocked(c, take)
		}
		c.grant += take
		s.pool -= take
	}
	if c.used+charge <= c.grant {
		s.admit(c, pid, size)
		s.logEventT(at, EvAccept, c, pid, charge, 0, 0)
		return AllocResult{Decision: Accept}, nil
	}
	if s.namedTenants > 0 && s.tryPreemptLocked(c, charge) {
		// A preempting algorithm reclaimed enough unused grant from
		// lower-ranked holders to admit the request in place.
		s.admit(c, pid, size)
		s.logEventT(at, EvAccept, c, pid, charge, 0, 0)
		return AllocResult{Decision: Accept}, nil
	}
	// Suspend: park the request until redistribution grants enough.
	s.nextTicket++
	t := s.nextTicket
	c.pending = append(c.pending, pendingReq{ticket: t, pid: pid, size: size, at: s.cfg.Clock.Now()})
	s.nextSeq++
	c.suspendSeq = s.nextSeq
	if len(c.pending) == 1 {
		c.suspendedSince = s.cfg.Clock.Now()
		c.everSuspended = true
		s.pausedCount.Add(1)
	}
	s.logEventT(at, EvSuspend, c, pid, size, t, 0)
	return AllocResult{Decision: Suspend, Ticket: t}, nil
}

// fastRequestAlloc decides the common case — the request fits (or can
// never fit) the container's existing grant — under the container's
// shard read lock and its own mutex, without excluding containers on
// other shards (or even read-locked neighbors on the same one). It
// reports done=false when the decision needs global state: a pool
// top-up or a suspension, both of which move memory between containers.
// The pending-queue-empty guard preserves ticket FIFO order: while
// requests are queued, new ones must go behind them through the slow
// path.
func (s *State) fastRequestAlloc(id ContainerID, pid int, size bytesize.Size, at time.Time) (res AllocResult, done bool, err error) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	c, ok := sh.containers[id]
	if !ok {
		return AllocResult{}, true, fmt.Errorf("%w: %s", ErrUnknownContainer, id)
	}
	if size <= 0 {
		return AllocResult{}, true, ErrInvalidSize
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pending) > 0 {
		return AllocResult{}, false, nil
	}
	charge := s.chargeFor(c, pid, size)
	if c.used+charge > c.limit {
		s.logEventT(at, EvReject, c, pid, size, 0, 0)
		return AllocResult{Decision: Reject}, true, nil
	}
	if c.used+charge > c.grant {
		return AllocResult{}, false, nil
	}
	s.admit(c, pid, size)
	s.logEventT(at, EvAccept, c, pid, charge, 0, 0)
	return AllocResult{Decision: Accept}, true, nil
}

// ConfirmAlloc records the device address the real allocation returned,
// so the scheduler can track it (paper: "Scheduler tracks this
// information using hash structure and calculates total memory usage").
// It touches only one container's state, so it runs entirely on the
// fast path: its shard's read lock plus the container's mutex.
func (s *State) ConfirmAlloc(id ContainerID, pid int, addr uint64, size bytesize.Size) error {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	c, ok := sh.containers[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownContainer, id)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return s.confirmLocked(c, pid, addr, size)
}

// confirmLocked is ConfirmAlloc's body; the caller holds either lockAll
// or the container's shard read lock plus c.mu.
func (s *State) confirmLocked(c *containerState, pid int, addr uint64, size bytesize.Size) error {
	id := c.id
	p, ok := c.procs[pid]
	if !ok || len(p.accepted) == 0 {
		return fmt.Errorf("%w: container %s pid %d", ErrNotCharged, id, pid)
	}
	// Confirms may arrive out of order when a process has several
	// threads allocating: match any accepted charge of this size.
	i := indexOfSize(p.accepted, size)
	if i < 0 {
		return fmt.Errorf("core: confirm size %v does not match any accepted request", size)
	}
	// A confirm for an address the scheduler still tracks means the old
	// record is stale: the device reused the address, so its previous
	// allocation was already freed and the (fire-and-forget) free report
	// is still in flight. Release the stale usage implicitly; the late
	// report will fail with ErrUnknownAddr and be ignored by the wrapper.
	if len(c.procs) == 1 { // only p's allocations can hold addr: no map walk
		c.dropStale(p, addr)
	} else {
		for _, q := range c.procs {
			c.dropStale(q, addr)
		}
	}
	p.accepted = append(p.accepted[:i], p.accepted[i+1:]...)
	p.allocs[addr] = size
	return nil
}

// dropStale releases q's record of addr, if it has one.
func (c *containerState) dropStale(q *procState, addr uint64) {
	if stale, dup := q.allocs[addr]; dup {
		delete(q.allocs, addr)
		c.used -= stale
	}
}

// Restore re-charges a live allocation a wrapper reports while
// re-attaching after a reconnect. Three cases:
//
//   - Only the connection dropped, and the allocation's confirm went
//     down with it: the process still holds an accepted charge of this
//     size with no address. The restore is that confirm, late — the
//     charge moves to the address and nothing is charged twice.
//   - The scheduler restarted and lost its accounting: the allocation is
//     charged as if it had been confirmed (including the process's
//     context overhead on its first restore), topping the grant up from
//     the pool as needed. A report that cannot fit within the
//     container's limit and the remaining pool fails with
//     ErrRestoreInfeasible — the scheduler refuses to fabricate
//     capacity it does not have.
//   - The scheduler never lost the session (only the connection
//     dropped): the address is already tracked with the same size and
//     the restore is an idempotent no-op — nothing is double-counted.
func (s *State) Restore(id ContainerID, pid int, addr uint64, size bytesize.Size) error {
	s.lockAll()
	defer s.unlockAll()
	c, ok := s.lookupLocked(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownContainer, id)
	}
	if size <= 0 {
		return ErrInvalidSize
	}
	for _, q := range c.procs {
		if have, dup := q.allocs[addr]; dup {
			if have == size {
				return nil // replayed restore: already accounted
			}
			return fmt.Errorf("core: restore of %#x with size %v conflicts with tracked %v", addr, size, have)
		}
	}
	if p, ok := c.procs[pid]; ok && indexOfSize(p.accepted, size) >= 0 {
		return s.confirmLocked(c, pid, addr, size)
	}
	charge := s.chargeFor(c, pid, size)
	if c.used+charge > c.limit {
		return fmt.Errorf("%w: container %s used %v + %v > limit %v",
			ErrRestoreInfeasible, id, c.used, charge, c.limit)
	}
	if c.used+charge > c.grant {
		need := c.used + charge - c.grant
		if need > s.pool {
			return fmt.Errorf("%w: container %s needs %v, pool has %v",
				ErrRestoreInfeasible, id, need, s.pool)
		}
		// The quota is a hard invariant, so a restore cannot grow the
		// tenant's grants past it; guarantees are soft reservations and do
		// not fail recovery.
		if s.namedTenants > 0 && s.quotaHeadroomLocked(c.tenant) < need {
			return fmt.Errorf("%w: container %s needs %v beyond tenant %q quota",
				ErrRestoreInfeasible, id, need, c.tenant.Name)
		}
		c.grant += need
		s.pool -= need
	}
	p := s.proc(c, pid)
	p.charged = true
	p.allocs[addr] = size
	c.used += charge
	s.logEvent(EvRestore, c, pid, charge)
	return nil
}

// DropPending removes the given suspended tickets — the daemon calls it
// when the connection their responses were parked on drops, so a dead
// wrapper cannot pin the redistribution queue. Dropping is idempotent:
// unknown tickets and already-closed containers are ignored. Removing a
// queue head can let the next request fit the existing grant, so the
// returned Update must be dispatched like any other.
func (s *State) DropPending(id ContainerID, tickets []Ticket) (Update, error) {
	s.lockAll()
	defer s.unlockAll()
	c, ok := s.lookupLocked(id)
	if !ok {
		return Update{}, nil
	}
	drop := make(map[Ticket]bool, len(tickets))
	for _, t := range tickets {
		drop[t] = true
	}
	kept := c.pending[:0]
	var removed []pendingReq
	for _, r := range c.pending {
		if drop[r.ticket] {
			removed = append(removed, r)
			continue
		}
		kept = append(kept, r)
	}
	if len(removed) == 0 {
		return Update{}, nil
	}
	c.pending = kept
	s.noteSuspensionEnd(c)
	for _, r := range removed {
		s.logEventT(time.Time{}, EvDrop, c, r.pid, 0, r.ticket, 0)
	}
	return s.afterRelease(), nil
}

// AbortAlloc returns the charge of an accepted request whose real CUDA
// allocation failed (e.g. device fragmentation). The freed charge may
// admit suspended requests.
func (s *State) AbortAlloc(id ContainerID, pid int, size bytesize.Size) (Update, error) {
	s.lockAll()
	defer s.unlockAll()
	c, ok := s.lookupLocked(id)
	if !ok {
		return Update{}, fmt.Errorf("%w: %s", ErrUnknownContainer, id)
	}
	p, ok := c.procs[pid]
	if !ok || len(p.accepted) == 0 {
		return Update{}, fmt.Errorf("%w: container %s pid %d", ErrNotCharged, id, pid)
	}
	i := indexOfSize(p.accepted, size)
	if i < 0 {
		return Update{}, fmt.Errorf("core: abort size %v does not match any accepted request", size)
	}
	p.accepted = append(p.accepted[:i], p.accepted[i+1:]...)
	c.used -= size // overhead stays charged: the context was created
	s.logEvent(EvAbort, c, pid, size)
	return s.afterRelease(), nil
}

// Free releases the allocation at addr (the wrapper reports cudaFree).
// It returns the released size and any requests admitted as a result.
func (s *State) Free(id ContainerID, pid int, addr uint64) (bytesize.Size, Update, error) {
	return s.FreeAt(id, pid, addr, time.Time{})
}

// FreeAt is Free whose free event is stamped at, as RequestAllocAt's.
// What the release admits is stamped when it is admitted.
func (s *State) FreeAt(id ContainerID, pid int, addr uint64, at time.Time) (bytesize.Size, Update, error) {
	if size, u, done, err := s.fastFree(id, pid, addr, at); done {
		return size, u, err
	}
	s.lockAll()
	defer s.unlockAll()
	c, ok := s.lookupLocked(id)
	if !ok {
		return 0, Update{}, fmt.Errorf("%w: %s", ErrUnknownContainer, id)
	}
	p, ok := c.procs[pid]
	if !ok {
		return 0, Update{}, fmt.Errorf("%w: container %s pid %d", ErrUnknownPID, id, pid)
	}
	size, ok := p.allocs[addr]
	if !ok {
		return 0, Update{}, fmt.Errorf("%w: %#x", ErrUnknownAddr, addr)
	}
	delete(p.allocs, addr)
	c.used -= size
	s.logEventT(at, EvFree, c, pid, size, 0, 0)
	return size, s.afterRelease(), nil
}

// fastFree releases an allocation under the shard read lock when no
// container anywhere is paused. In that state afterRelease is provably
// a no-op — there is nothing to admit, reclaim or rescue — so returning
// an empty Update is exact, and the free touches only this container's
// state. pausedCount only changes under lockAll, which cannot complete
// while this shard's read lock is held, so the zero read here stays
// true for the duration of the read lock. With paused containers the
// free falls through to the slow path, whose redistribution may admit
// them.
func (s *State) fastFree(id ContainerID, pid int, addr uint64, at time.Time) (sz bytesize.Size, u Update, done bool, err error) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if s.pausedCount.Load() != 0 {
		return 0, Update{}, false, nil
	}
	c, ok := sh.containers[id]
	if !ok {
		return 0, Update{}, true, fmt.Errorf("%w: %s", ErrUnknownContainer, id)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.procs[pid]
	if !ok {
		return 0, Update{}, true, fmt.Errorf("%w: container %s pid %d", ErrUnknownPID, id, pid)
	}
	size, ok := p.allocs[addr]
	if !ok {
		return 0, Update{}, true, fmt.Errorf("%w: %#x", ErrUnknownAddr, addr)
	}
	delete(p.allocs, addr)
	c.used -= size
	s.logEventT(at, EvFree, c, pid, size, 0, 0)
	return size, Update{}, true, nil
}

// ProcessExit releases everything a process holds — leaked allocations
// and its context overhead (the wrapper reports
// __cudaUnregisterFatBinary; "some program may not free its allocated
// GPU memory"). It returns the total released.
func (s *State) ProcessExit(id ContainerID, pid int) (bytesize.Size, Update, error) {
	s.lockAll()
	defer s.unlockAll()
	c, ok := s.lookupLocked(id)
	if !ok {
		return 0, Update{}, fmt.Errorf("%w: %s", ErrUnknownContainer, id)
	}
	var released bytesize.Size
	if p, ok := c.procs[pid]; ok {
		for _, sz := range p.allocs {
			released += sz
		}
		for _, sz := range p.accepted {
			released += sz
		}
		if p.charged {
			released += s.cfg.ContextOverhead
		}
		c.used -= released
	}
	// Drop and cancel the pid's pending requests: the process is gone, so
	// any responder parked on them must be released.
	var u Update
	for _, r := range c.pending {
		if r.pid == pid {
			u.Cancelled = append(u.Cancelled, Admitted{Container: id, Ticket: r.ticket})
		}
	}
	c.pending = filterPending(c.pending, pid)
	s.noteSuspensionEnd(c)
	delete(c.procs, pid)
	s.logEvent(EvProcExit, c, pid, released)
	more := s.afterRelease()
	u.Admitted = more.Admitted
	u.Cancelled = append(u.Cancelled, more.Cancelled...)
	return released, u, nil
}

// Close removes a container entirely (nvidia-docker-plugin's close
// signal on container stop): its grant returns to the pool and the
// scheduler redistributes it among paused containers with the configured
// algorithm. Pending requests of the closed container are cancelled.
func (s *State) Close(id ContainerID) (bytesize.Size, Update, error) {
	s.lockAll()
	defer s.unlockAll()
	c, ok := s.lookupLocked(id)
	if !ok {
		if s.closedIDs[id] {
			// Idempotent: the plugin may deliver close more than once.
			return 0, Update{}, nil
		}
		return 0, Update{}, fmt.Errorf("%w: %s", ErrUnknownContainer, id)
	}
	var u Update
	for _, req := range c.pending {
		u.Cancelled = append(u.Cancelled, Admitted{Container: id, Ticket: req.ticket})
	}
	c.pending = nil
	s.noteSuspensionEnd(c)
	released := c.grant
	s.pool += c.grant
	delete(s.shardFor(id).containers, id)
	if c.tenant.Name != "" {
		s.namedTenants--
	}
	s.closedIDs[id] = true
	s.logEvent(EvClose, c, 0, released)
	more := s.afterRelease()
	u.Admitted = append(u.Admitted, more.Admitted...)
	u.Cancelled = append(u.Cancelled, more.Cancelled...)
	return released, u, nil
}

// MemInfo returns the container's virtualized view of GPU memory: total
// is its limit and free is what remains below it. This is what the
// wrapper returns for cudaMemGetInfo — the container sees only its own
// slice of the GPU.
func (s *State) MemInfo(id ContainerID) (free, total bytesize.Size, err error) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	c, ok := sh.containers[id]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %s", ErrUnknownContainer, id)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.limit - c.used, c.limit, nil
}

// afterRelease runs redistribution and per-container admission after any
// memory release. Callers hold lockAll.
func (s *State) afterRelease() Update {
	var u Update
	// First, requests that now fit within their container's own grant
	// (its usage dropped).
	for _, c := range s.sortedContainersLocked() {
		u.Admitted = append(u.Admitted, s.admitFittingLocked(c)...)
	}
	// Then distribute the pool among paused containers.
	u.Admitted = append(u.Admitted, s.redistributeLocked()...)
	if len(u.Admitted) == 0 && s.cfg.FaultTolerant {
		// The policy's redistribution achieved nothing. If any paused
		// request is feasible at all, the rescue pass admits it.
		u.Admitted = append(u.Admitted, s.rescueLocked()...)
	}
	return u
}

// rescueLocked is the fault-tolerance pass ([10]): reclaim every paused
// container's unused assignment unconditionally, then admit pending
// head requests smallest-charge-first while they fit. It ignores the
// configured algorithm by design — it only runs when that algorithm
// has wedged.
func (s *State) rescueLocked() []Admitted {
	anyPaused := false
	for _, c := range s.allContainersLocked() {
		if len(c.pending) > 0 {
			anyPaused = true
			if c.grant > c.used {
				s.pool += c.grant - c.used
				c.grant = c.used
			}
		}
	}
	if !anyPaused {
		return nil
	}
	var admitted []Admitted
	for {
		// Pick the paused container whose head request is cheapest to
		// satisfy and feasible within the pool.
		var pick *containerState
		var pickNeed bytesize.Size
		for _, c := range s.sortedContainersLocked() {
			if len(c.pending) == 0 {
				continue
			}
			head := c.pending[0]
			charge := s.chargeFor(c, head.pid, head.size)
			if c.used+charge > c.limit {
				continue // only the container's own frees can help it
			}
			need := c.used + charge - c.grant
			if need > s.pool {
				continue // infeasible right now
			}
			if s.namedTenants > 0 && s.quotaHeadroomLocked(c.tenant) < need {
				continue // the rescue pass may ignore soft guarantees, not quotas
			}
			if pick == nil || need < pickNeed {
				pick, pickNeed = c, need
			}
		}
		if pick == nil {
			return admitted
		}
		pick.grant += pickNeed
		s.pool -= pickNeed
		s.logEvent(EvRescue, pick, 0, pickNeed)
		admitted = append(admitted, s.admitFittingLocked(pick)...)
	}
}

// admitFittingLocked admits the container's pending requests, in FIFO
// order, while they fit under the current grant.
func (s *State) admitFittingLocked(c *containerState) []Admitted {
	var admitted []Admitted
	for len(c.pending) > 0 {
		req := c.pending[0]
		charge := s.chargeFor(c, req.pid, req.size)
		if c.used+charge > c.grant {
			break
		}
		s.admit(c, req.pid, req.size)
		now := s.cfg.Clock.Now()
		s.logEventT(now, EvResume, c, req.pid, charge, req.ticket, now.Sub(req.at))
		admitted = append(admitted, Admitted{Container: c.id, Ticket: req.ticket})
		c.pending = c.pending[1:]
	}
	s.noteSuspensionEnd(c)
	return admitted
}

// redistributeLocked implements the paper's redistribution loop: while
// free memory and paused containers remain, the algorithm picks a
// container and assigns it memory up to its creation-time request.
//
// Before picking, the unused assignments of paused containers are
// reclaimed into the pool. A paused container is blocked anyway and its
// demand is fully described by its limit and usage, so re-granting every
// round lets the algorithm steer *all* distributable memory (Fig. 3d:
// the selected container is "guaranteed all GPU memory which the
// container firstly requested" out of whatever is free). Without
// reclamation, partial grants stranded with paused containers wedge the
// system under heavy load — precisely the deadlock ConVGPU exists to
// prevent. Running containers keep their creation-time guarantee
// untouched.
func (s *State) redistributeLocked() []Admitted {
	if !s.cfg.PersistentGrants {
		for _, c := range s.allContainersLocked() {
			if len(c.pending) > 0 && c.grant > c.used {
				s.pool += c.grant - c.used
				c.grant = c.used
			}
		}
	}
	var admitted []Admitted
	for s.pool > 0 {
		cands, byIdx := s.candidatesLocked()
		if len(cands) == 0 {
			break
		}
		i := s.cfg.Algorithm.Pick(s.pool, cands)
		if i < 0 || i >= len(cands) {
			break
		}
		c := byIdx[i]
		// Candidate.Deficit is the effective deficit — limit-grant, already
		// capped by the tenant's quota headroom and guarantee-reserved pool
		// share when named tenants are active — so the give can never bust
		// a tenant cap, and a picked candidate always receives > 0.
		give := cands[i].Deficit
		if give > s.pool {
			give = s.pool
		}
		c.grant += give
		s.pool -= give
		s.logEvent(EvGrant, c, 0, give)
		admitted = append(admitted, s.admitFittingLocked(c)...)
		if len(c.pending) > 0 {
			// Partial grant: pool is exhausted (give < deficit implies
			// pool hit zero), so the loop ends naturally.
			continue
		}
	}
	return admitted
}

// candidatesLocked assembles the paused containers (those with pending
// requests), ordered by creation. With named tenants active, each
// candidate's Deficit is the *effective* deficit — capped by its
// tenant's quota headroom and guarantee-reserved pool share — and
// candidates whose effective deficit is zero are excluded entirely, so
// the redistribution loop cannot spin on a capped tenant; the tenant
// identity fields let tenant-aware wake policies order candidates.
func (s *State) candidatesLocked() ([]Candidate, []*containerState) {
	var cands []Candidate
	var byIdx []*containerState
	var grantSums map[string]bytesize.Size
	if s.namedTenants > 0 {
		grantSums = s.tenantGrantSumsLocked()
	}
	for _, c := range s.sortedContainersLocked() {
		if len(c.pending) == 0 || c.grant >= c.limit {
			// Not paused, or already holds its full creation-time request
			// (its head request only fits after the container's own
			// frees): more memory cannot help it.
			continue
		}
		cand := Candidate{
			ID:         c.id,
			CreatedSeq: c.createdSeq,
			SuspendSeq: c.suspendSeq,
			Deficit:    c.limit - c.grant,
		}
		if s.namedTenants > 0 {
			if hr := s.quotaHeadroomLocked(c.tenant); cand.Deficit > hr {
				cand.Deficit = hr
			}
			if avail := s.availableForLocked(c.tenant); cand.Deficit > avail {
				cand.Deficit = avail
			}
			if cand.Deficit <= 0 {
				continue // capped: more memory cannot legally reach it
			}
			cand.Tenant = c.tenant.Name
			cand.TenantWeight = c.tenant.Weight
			cand.TenantPriority = c.tenant.Priority
			cand.TenantGrant = grantSums[c.tenant.Name]
			cand.TenantGuarantee = c.tenant.Guarantee
		}
		cands = append(cands, cand)
		byIdx = append(byIdx, c)
	}
	return cands, byIdx
}

// allContainersLocked collects every container across the shards, in no
// particular order. Callers hold lockAll.
func (s *State) allContainersLocked() []*containerState {
	var out []*containerState
	for i := range s.shards {
		for _, c := range s.shards[i].containers {
			out = append(out, c)
		}
	}
	return out
}

func (s *State) sortedContainersLocked() []*containerState {
	out := s.allContainersLocked()
	sort.Slice(out, func(i, j int) bool { return out[i].createdSeq < out[j].createdSeq })
	return out
}

// noteSuspensionEnd closes the current suspension interval if the
// container has no pending requests left. Callers hold lockAll.
// A non-zero suspendedSince marks exactly the containers pausedCount
// has counted — it is set when pending goes non-empty and cleared only
// here — so the counter comes back down exactly once per pause.
func (s *State) noteSuspensionEnd(c *containerState) {
	if len(c.pending) == 0 && !c.suspendedSince.IsZero() {
		c.suspendedTotal += s.cfg.Clock.Now().Sub(c.suspendedSince)
		c.suspendedSince = time.Time{}
		s.pausedCount.Add(-1)
	}
}

// ContainerInfo is a snapshot of one container's scheduler state.
type ContainerInfo struct {
	ID ContainerID
	// Tenant is the name of the tenant the container registered under
	// (empty for the default tenant); TenantDef is the full identity —
	// failover re-registers the container with it on the surviving node.
	Tenant    string
	TenantDef Tenant
	Limit     bytesize.Size
	Grant     bytesize.Size
	Used      bytesize.Size
	Pending   int
	CreatedAt time.Time
	Suspended bool
	// SuspendedTotal is the cumulative time the container has spent with
	// at least one allocation suspended (including the open interval).
	SuspendedTotal time.Duration
	EverSuspended  bool
}

// Snapshot returns the state of all registered containers, ordered by
// creation.
func (s *State) Snapshot() []ContainerInfo {
	s.lockAll()
	defer s.unlockAll()
	now := s.cfg.Clock.Now()
	var out []ContainerInfo
	for _, c := range s.sortedContainersLocked() {
		info := ContainerInfo{
			ID:             c.id,
			Tenant:         c.tenant.Name,
			TenantDef:      c.tenant,
			Limit:          c.limit,
			Grant:          c.grant,
			Used:           c.used,
			Pending:        len(c.pending),
			CreatedAt:      c.createdAt,
			Suspended:      len(c.pending) > 0,
			SuspendedTotal: c.suspendedTotal,
			EverSuspended:  c.everSuspended,
		}
		if !c.suspendedSince.IsZero() {
			info.SuspendedTotal += now.Sub(c.suspendedSince)
		}
		out = append(out, info)
	}
	return out
}

// Info returns the snapshot for one container.
func (s *State) Info(id ContainerID) (ContainerInfo, error) {
	for _, info := range s.Snapshot() {
		if info.ID == id {
			return info, nil
		}
	}
	return ContainerInfo{}, fmt.Errorf("%w: %s", ErrUnknownContainer, id)
}

// PoolFree returns the memory not granted to any container.
func (s *State) PoolFree() bytesize.Size {
	s.lockAll()
	defer s.unlockAll()
	return s.pool
}

// TotalUsed sums the usage of every registered container — the
// scheduler's view of occupied GPU memory (the simulator integrates it
// into a utilization figure).
func (s *State) TotalUsed() bytesize.Size {
	s.lockAll()
	defer s.unlockAll()
	var total bytesize.Size
	for _, c := range s.allContainersLocked() {
		total += c.used
	}
	return total
}

// Stalled reports whether the system can make no progress without
// operator intervention: at least one container is paused and every
// registered container is paused. Redistribution runs only when memory
// is released (free, process exit, close); if every container is
// blocked in a suspended allocation, no such event can occur again.
//
// Multi-allocation programs reach it via classic hold-and-wait (a paused
// container retaining earlier allocations), the residual risk the
// authors' prior fault-tolerance study [10] addresses. Single-allocation
// programs — the paper's entire evaluation — reach it through the
// partial-grant wedge: two containers each register into a partial grant
// while nobody is pending, the grants sum to the device, both suspend on
// their first request, and no release — so no reclaim and no rescue pass
// either — can follow. TESTING.md ("The partial-grant wedge") has the
// three-container trace; closing it is ROADMAP item 1(b).
func (s *State) Stalled() bool {
	s.lockAll()
	defer s.unlockAll()
	anyPaused := false
	for _, c := range s.allContainersLocked() {
		if len(c.pending) > 0 {
			anyPaused = true
		} else {
			return false // an unblocked container may still release memory
		}
	}
	return anyPaused
}

func indexOfSize(sizes []bytesize.Size, size bytesize.Size) int {
	for i, s := range sizes {
		if s == size {
			return i
		}
	}
	return -1
}

func filterPending(reqs []pendingReq, pid int) []pendingReq {
	out := reqs[:0]
	for _, r := range reqs {
		if r.pid != pid {
			out = append(out, r)
		}
	}
	return out
}

// CheckInvariants verifies the scheduler's core invariants and returns a
// descriptive error if any is violated. Tests and the simulator call it
// after every step.
func (s *State) CheckInvariants() error {
	s.lockAll()
	defer s.unlockAll()
	var grantSum bytesize.Size
	for _, c := range s.allContainersLocked() {
		id := c.id
		if c.used < 0 {
			return fmt.Errorf("core: container %s used %v < 0", id, c.used)
		}
		if c.used > c.grant {
			return fmt.Errorf("core: container %s used %v > grant %v", id, c.used, c.grant)
		}
		if c.grant > c.limit {
			return fmt.Errorf("core: container %s grant %v > limit %v", id, c.grant, c.limit)
		}
		grantSum += c.grant
		var tracked bytesize.Size
		charged := 0
		for _, p := range c.procs {
			for _, sz := range p.allocs {
				tracked += sz
			}
			for _, sz := range p.accepted {
				tracked += sz
			}
			if p.charged {
				charged++
			}
		}
		if want := tracked + bytesize.Size(charged)*s.cfg.ContextOverhead; want != c.used {
			return fmt.Errorf("core: container %s used %v != tracked %v", id, c.used, want)
		}
	}
	if grantSum+s.pool != s.cfg.Capacity {
		return fmt.Errorf("core: grants %v + pool %v != capacity %v", grantSum, s.pool, s.cfg.Capacity)
	}
	if s.namedTenants > 0 {
		// Per-tenant quota invariant: a tenant's summed grants never
		// exceed its quota. Containers of one tenant should agree on the
		// quota; if they do not, the loosest (largest) binding is checked.
		sums := make(map[string]bytesize.Size)
		quotas := make(map[string]bytesize.Size)
		for _, c := range s.allContainersLocked() {
			if c.tenant.Name == "" {
				continue
			}
			sums[c.tenant.Name] += c.grant
			if c.tenant.Quota > quotas[c.tenant.Name] {
				quotas[c.tenant.Name] = c.tenant.Quota
			}
		}
		for name, q := range quotas {
			if q > 0 && sums[name] > q {
				return fmt.Errorf("core: tenant %s grants %v exceed quota %v", name, sums[name], q)
			}
		}
	}
	return nil
}

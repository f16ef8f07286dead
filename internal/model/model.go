package model

import (
	"fmt"
	"math/rand"
	"sort"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/errs"
)

// Config parameterizes a reference model. Devices are homogeneous, as
// everywhere else in the repo (multigpu.Config.CapacityPerDevice,
// cluster.Config.CapacityPerGPU).
type Config struct {
	// Devices is the number of leaf devices, in the same order the real
	// backend reports them from Devices() (multigpu: device i; cluster:
	// node*GPUsPerNode + device).
	Devices int
	// Capacity is each device's schedulable memory.
	Capacity bytesize.Size
	// Overhead is the per-process context overhead, already resolved
	// (the model never substitutes a default).
	Overhead bytesize.Size
	// Algorithm is one of core.AlgFIFO/AlgBestFit/AlgRecentUse/AlgRandom
	// or a tenant-aware wake policy ("fairshare", "quota", "priority").
	Algorithm string
	// AlgSeeds seeds the Random algorithm, one per device, mirroring how
	// the real topology derives them (multigpu device i: AlgSeed+i;
	// cluster node n device i: AlgSeed+100n+i). Ignored by the
	// deterministic algorithms.
	AlgSeeds []int64
	// Routed selects the routing-plane semantics of multigpu/cluster
	// backends: once a container closes its placement is forgotten, so a
	// second Close (and DropPending on an unknown container) reports
	// ErrUnknownContainer instead of the single-State idempotent no-op.
	Routed bool
}

type mpending struct {
	ticket core.Ticket
	pid    int
	size   bytesize.Size
}

type mproc struct {
	charged  bool
	allocs   map[uint64]bytesize.Size
	accepted []bytesize.Size
}

type mcontainer struct {
	id         core.ContainerID
	tenant     core.Tenant
	limit      bytesize.Size
	grant      bytesize.Size
	used       bytesize.Size
	createdSeq uint64
	suspendSeq uint64
	pending    []mpending
	procs      map[int]*mproc
}

type mdevice struct {
	index        int
	pool         bytesize.Size
	nextSeq      uint64
	nextTicket   core.Ticket
	namedTenants int        // containers bound to a named tenant
	rng          *rand.Rand // Random algorithm only
	containers   map[core.ContainerID]*mcontainer
}

// Model is the sequential reference scheduler. It is not safe for
// concurrent use — the whole point is that it has no concurrency.
type Model struct {
	cfg       Config
	devs      []*mdevice
	placement map[core.ContainerID]int
	closed    map[core.ContainerID]bool // single-State close idempotence
}

// New builds a model. The configuration mirrors an already-validated
// real backend, so it panics on nonsense rather than returning errors.
func New(cfg Config) *Model {
	if cfg.Devices < 1 || cfg.Capacity <= 0 {
		panic(fmt.Sprintf("model: bad config: %d devices, capacity %v", cfg.Devices, cfg.Capacity))
	}
	switch cfg.Algorithm {
	case core.AlgFIFO, core.AlgBestFit, core.AlgRecentUse,
		algFairShare, algQuota, algPriority:
	case core.AlgRandom:
		if len(cfg.AlgSeeds) != cfg.Devices {
			panic(fmt.Sprintf("model: random needs %d seeds, got %d", cfg.Devices, len(cfg.AlgSeeds)))
		}
	default:
		panic(fmt.Sprintf("model: unknown algorithm %q", cfg.Algorithm))
	}
	m := &Model{
		cfg:       cfg,
		placement: make(map[core.ContainerID]int),
		closed:    make(map[core.ContainerID]bool),
	}
	for i := 0; i < cfg.Devices; i++ {
		d := &mdevice{index: i, pool: cfg.Capacity, containers: make(map[core.ContainerID]*mcontainer)}
		if cfg.Algorithm == core.AlgRandom {
			d.rng = rand.New(rand.NewSource(cfg.AlgSeeds[i]))
		}
		m.devs = append(m.devs, d)
	}
	return m
}

// --- helpers ---

func (m *Model) find(id core.ContainerID) (*mdevice, *mcontainer, error) {
	if dev, ok := m.placement[id]; ok {
		d := m.devs[dev]
		if c, ok := d.containers[id]; ok {
			return d, c, nil
		}
	}
	return nil, nil, errs.ErrUnknownContainer
}

func (m *Model) chargeFor(c *mcontainer, pid int, size bytesize.Size) bytesize.Size {
	if p, ok := c.procs[pid]; ok && p.charged {
		return size
	}
	return size + m.cfg.Overhead
}

func (m *Model) proc(c *mcontainer, pid int) *mproc {
	p, ok := c.procs[pid]
	if !ok {
		p = &mproc{allocs: make(map[uint64]bytesize.Size)}
		c.procs[pid] = p
	}
	return p
}

func (m *Model) admit(c *mcontainer, pid int, size bytesize.Size) {
	charge := m.chargeFor(c, pid, size)
	c.used += charge
	p := m.proc(c, pid)
	p.charged = true
	p.accepted = append(p.accepted, size)
}

func (d *mdevice) sorted() []*mcontainer {
	out := make([]*mcontainer, 0, len(d.containers))
	for _, c := range d.containers {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].createdSeq < out[j].createdSeq })
	return out
}

// --- admission ---

// Register admits id with its creation-time limit on the device the
// real backend placed it on (device may be -1 when the real call
// failed; the model only consults it after deciding the call succeeds).
func (m *Model) Register(id core.ContainerID, limit bytesize.Size, device int) (bytesize.Size, error) {
	return m.RegisterTenant(id, limit, device, core.Tenant{})
}

// RegisterTenant is Register carrying a tenant identity, mirroring
// core.State.RegisterTenant: a named tenant's initial grant is clamped
// by its quota headroom and by the pool share left after other tenants'
// guarantees.
func (m *Model) RegisterTenant(id core.ContainerID, limit bytesize.Size, device int, t core.Tenant) (bytesize.Size, error) {
	if dev, ok := m.placement[id]; ok {
		// A placement pinned by RestorePlacement without a registered
		// container (recovery in flight) does not make id a duplicate.
		if _, registered := m.devs[dev].containers[id]; registered {
			return 0, core.ErrDuplicateContainer
		}
	}
	if limit <= 0 {
		return 0, core.ErrInvalidLimit
	}
	if limit > m.cfg.Capacity {
		return 0, errs.ErrOverCapacity
	}
	if device < 0 || device >= len(m.devs) {
		return 0, fmt.Errorf("model: real backend placed %s on device %d of %d — illegal placement", id, device, len(m.devs))
	}
	return m.registerAt(id, limit, device, t), nil
}

func (m *Model) registerAt(id core.ContainerID, limit bytesize.Size, device int, t core.Tenant) bytesize.Size {
	d := m.devs[device]
	d.nextSeq++
	c := &mcontainer{
		id:         id,
		tenant:     t,
		limit:      limit,
		createdSeq: d.nextSeq,
		procs:      make(map[int]*mproc),
	}
	c.grant = limit
	if c.grant > d.pool {
		c.grant = d.pool
	}
	if t.Name != "" || d.namedTenants > 0 {
		c.grant = m.clampTake(d, c, c.grant)
	}
	d.pool -= c.grant
	d.containers[id] = c
	m.placement[id] = device
	if t.Name != "" {
		d.namedTenants++
	}
	delete(m.closed, id)
	return c.grant
}

// EnsureRegistered mirrors the recovery-path re-registration: a known
// container's grant is returned untouched when the limit matches, an
// unknown one registers afresh on device (typically pinned beforehand
// with RestorePlacement).
func (m *Model) EnsureRegistered(id core.ContainerID, limit bytesize.Size, device int) (bytesize.Size, error) {
	return m.EnsureRegisteredTenant(id, limit, device, core.Tenant{})
}

// EnsureRegisteredTenant is EnsureRegistered carrying a tenant
// identity, mirroring core.State.EnsureRegisteredTenant's adoption
// rules: a known container's binding is refreshed when the names agree
// (or it had none); an existing different binding is kept.
func (m *Model) EnsureRegisteredTenant(id core.ContainerID, limit bytesize.Size, device int, t core.Tenant) (bytesize.Size, error) {
	if d, c, err := m.find(id); err == nil {
		if c.limit != limit {
			return 0, core.ErrLimitMismatch
		}
		if t.Name != "" && (c.tenant.Name == "" || c.tenant.Name == t.Name) {
			if c.tenant.Name == "" {
				d.namedTenants++
			}
			c.tenant = t
		}
		return c.grant, nil
	}
	return m.RegisterTenant(id, limit, device, t)
}

// ResetDevices mirrors a node death: every listed device is rebuilt
// fresh — full pool, no containers, sequence and ticket counters back to
// zero, the Random rng reseeded from its original seed — exactly the
// state of the empty replacement scheduler the cluster installs in a
// dead node's slot. Containers placed on those devices are forgotten
// (the harness replays the real backend's migration afterwards).
// Returns the forgotten container IDs, sorted.
func (m *Model) ResetDevices(devices []int) []core.ContainerID {
	reset := make(map[int]bool, len(devices))
	for _, di := range devices {
		if di < 0 || di >= len(m.devs) {
			panic(fmt.Sprintf("model: reset of unknown device %d", di))
		}
		reset[di] = true
	}
	var removed []core.ContainerID
	for id, dev := range m.placement {
		if reset[dev] {
			removed = append(removed, id)
			delete(m.placement, id)
		}
	}
	for di := range reset {
		d := &mdevice{index: di, pool: m.cfg.Capacity, containers: make(map[core.ContainerID]*mcontainer)}
		if m.cfg.Algorithm == core.AlgRandom {
			d.rng = rand.New(rand.NewSource(m.cfg.AlgSeeds[di]))
		}
		m.devs[di] = d
	}
	sort.Slice(removed, func(i, j int) bool { return removed[i] < removed[j] })
	return removed
}

// RestorePlacement pins a recovering container's device before
// EnsureRegistered re-admits it, like core.Scheduler's method.
func (m *Model) RestorePlacement(id core.ContainerID, device int) error {
	if device < 0 || device >= len(m.devs) {
		return core.ErrUnknownDevice
	}
	m.placement[id] = device
	return nil
}

// --- the allocation lifecycle ---

// RequestAlloc mirrors core.State.RequestAlloc: reject over the limit,
// top the grant up from the pool (a partial top-up sticks even when the
// request still suspends), accept within the grant, park otherwise.
func (m *Model) RequestAlloc(id core.ContainerID, pid int, size bytesize.Size) (core.AllocResult, error) {
	d, c, err := m.find(id)
	if err != nil {
		return core.AllocResult{}, err
	}
	if size <= 0 {
		return core.AllocResult{}, core.ErrInvalidSize
	}
	charge := m.chargeFor(c, pid, size)
	if c.used+charge > c.limit {
		return core.AllocResult{Decision: core.Reject}, nil
	}
	if c.used+charge > c.grant {
		take := c.used + charge - c.grant
		if take > d.pool {
			take = d.pool
		}
		if d.namedTenants > 0 {
			take = m.clampTake(d, c, take)
		}
		c.grant += take
		d.pool -= take
	}
	if c.used+charge <= c.grant {
		m.admit(c, pid, size)
		return core.AllocResult{Decision: core.Accept}, nil
	}
	if d.namedTenants > 0 && m.tryPreempt(d, c, charge) {
		m.admit(c, pid, size)
		return core.AllocResult{Decision: core.Accept}, nil
	}
	d.nextTicket++
	t := d.nextTicket
	c.pending = append(c.pending, mpending{ticket: t, pid: pid, size: size})
	d.nextSeq++
	c.suspendSeq = d.nextSeq
	return core.AllocResult{Decision: core.Suspend, Ticket: t}, nil
}

// ConfirmAlloc records the device address of an accepted request,
// including the stale-address release of a reused address.
func (m *Model) ConfirmAlloc(id core.ContainerID, pid int, addr uint64, size bytesize.Size) error {
	_, c, err := m.find(id)
	if err != nil {
		return err
	}
	p, ok := c.procs[pid]
	if !ok || len(p.accepted) == 0 {
		return core.ErrNotCharged
	}
	i := indexOfSize(p.accepted, size)
	if i < 0 {
		return fmt.Errorf("model: confirm size %v does not match any accepted request", size)
	}
	for _, q := range c.procs {
		if stale, dup := q.allocs[addr]; dup {
			delete(q.allocs, addr)
			c.used -= stale
		}
	}
	p.accepted = append(p.accepted[:i], p.accepted[i+1:]...)
	p.allocs[addr] = size
	return nil
}

// AbortAlloc returns an accepted-but-failed request's charge.
func (m *Model) AbortAlloc(id core.ContainerID, pid int, size bytesize.Size) (core.Update, error) {
	d, c, err := m.find(id)
	if err != nil {
		return core.Update{}, err
	}
	p, ok := c.procs[pid]
	if !ok || len(p.accepted) == 0 {
		return core.Update{}, core.ErrNotCharged
	}
	i := indexOfSize(p.accepted, size)
	if i < 0 {
		return core.Update{}, fmt.Errorf("model: abort size %v does not match any accepted request", size)
	}
	p.accepted = append(p.accepted[:i], p.accepted[i+1:]...)
	c.used -= size // overhead stays charged
	return m.afterRelease(d), nil
}

// Free releases the allocation at addr.
func (m *Model) Free(id core.ContainerID, pid int, addr uint64) (bytesize.Size, core.Update, error) {
	d, c, err := m.find(id)
	if err != nil {
		return 0, core.Update{}, err
	}
	p, ok := c.procs[pid]
	if !ok {
		return 0, core.Update{}, core.ErrUnknownPID
	}
	size, ok := p.allocs[addr]
	if !ok {
		return 0, core.Update{}, core.ErrUnknownAddr
	}
	delete(p.allocs, addr)
	c.used -= size
	return size, m.afterRelease(d), nil
}

// ProcessExit releases everything pid holds and cancels its parked
// requests.
func (m *Model) ProcessExit(id core.ContainerID, pid int) (bytesize.Size, core.Update, error) {
	d, c, err := m.find(id)
	if err != nil {
		return 0, core.Update{}, err
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
			released += m.cfg.Overhead
		}
		c.used -= released
	}
	var u core.Update
	kept := c.pending[:0]
	for _, r := range c.pending {
		if r.pid == pid {
			u.Cancelled = append(u.Cancelled, core.Admitted{Container: id, Ticket: r.ticket})
			continue
		}
		kept = append(kept, r)
	}
	c.pending = kept
	delete(c.procs, pid)
	more := m.afterRelease(d)
	u.Admitted = more.Admitted
	u.Cancelled = append(u.Cancelled, more.Cancelled...)
	return released, u, nil
}

// Close removes the container, returns its grant to the pool and
// redistributes.
func (m *Model) Close(id core.ContainerID) (bytesize.Size, core.Update, error) {
	d, c, err := m.find(id)
	if err != nil {
		if !m.cfg.Routed && m.closed[id] {
			return 0, core.Update{}, nil // idempotent re-close on a single State
		}
		return 0, core.Update{}, errs.ErrUnknownContainer
	}
	var u core.Update
	for _, r := range c.pending {
		u.Cancelled = append(u.Cancelled, core.Admitted{Container: id, Ticket: r.ticket})
	}
	c.pending = nil
	released := c.grant
	d.pool += c.grant
	if c.tenant.Name != "" {
		d.namedTenants--
	}
	delete(d.containers, id)
	delete(m.placement, id)
	m.closed[id] = true
	more := m.afterRelease(d)
	u.Admitted = append(u.Admitted, more.Admitted...)
	u.Cancelled = append(u.Cancelled, more.Cancelled...)
	return released, u, nil
}

// MemInfo reports the container's virtualized memory view.
func (m *Model) MemInfo(id core.ContainerID) (free, total bytesize.Size, err error) {
	_, c, err := m.find(id)
	if err != nil {
		return 0, 0, err
	}
	return c.limit - c.used, c.limit, nil
}

// Restore re-charges a live allocation during recovery replay — unless
// the process still holds an accepted, unconfirmed charge of that size:
// then the scheduler outlived the connection that lost the confirm, the
// restore stands in for it and used does not move.
func (m *Model) Restore(id core.ContainerID, pid int, addr uint64, size bytesize.Size) error {
	d, c, err := m.find(id)
	if err != nil {
		return err
	}
	if size <= 0 {
		return core.ErrInvalidSize
	}
	for _, q := range c.procs {
		if have, dup := q.allocs[addr]; dup {
			if have == size {
				return nil
			}
			return fmt.Errorf("model: restore of %#x conflicts with tracked size", addr)
		}
	}
	if p, ok := c.procs[pid]; ok {
		if i := indexOfSize(p.accepted, size); i >= 0 {
			p.accepted = append(p.accepted[:i], p.accepted[i+1:]...)
			p.allocs[addr] = size
			return nil
		}
	}
	charge := m.chargeFor(c, pid, size)
	if c.used+charge > c.limit {
		return core.ErrRestoreInfeasible
	}
	if c.used+charge > c.grant {
		need := c.used + charge - c.grant
		if need > d.pool {
			return core.ErrRestoreInfeasible
		}
		if d.namedTenants > 0 && m.quotaHeadroom(d, c.tenant) < need {
			return core.ErrRestoreInfeasible
		}
		c.grant += need
		d.pool -= need
	}
	p := m.proc(c, pid)
	p.charged = true
	p.allocs[addr] = size
	c.used += charge
	return nil
}

// DropPending removes parked tickets (idempotent on a single State,
// ErrUnknownContainer through a routing plane — see Config.Routed).
func (m *Model) DropPending(id core.ContainerID, tickets []core.Ticket) (core.Update, error) {
	d, c, err := m.find(id)
	if err != nil {
		if m.cfg.Routed {
			return core.Update{}, errs.ErrUnknownContainer
		}
		return core.Update{}, nil
	}
	drop := make(map[core.Ticket]bool, len(tickets))
	for _, t := range tickets {
		drop[t] = true
	}
	kept := c.pending[:0]
	removed := 0
	for _, r := range c.pending {
		if drop[r.ticket] {
			removed++
			continue
		}
		kept = append(kept, r)
	}
	if removed == 0 {
		return core.Update{}, nil
	}
	c.pending = kept
	return m.afterRelease(d), nil
}

// --- redistribution: the heart of the oracle ---

// afterRelease mirrors core.State.afterRelease under the default
// (reclaiming, non-fault-tolerant) semantics: first admit requests that
// now fit their container's own grant, in container creation order,
// then run the algorithm's redistribution loop.
func (m *Model) afterRelease(d *mdevice) core.Update {
	var u core.Update
	for _, c := range d.sorted() {
		u.Admitted = append(u.Admitted, m.admitFitting(d, c)...)
	}
	u.Admitted = append(u.Admitted, m.redistribute(d)...)
	return u
}

// admitFitting admits c's pending requests head-first while they fit
// the current grant — per-container FIFO by construction.
func (m *Model) admitFitting(d *mdevice, c *mcontainer) []core.Admitted {
	var admitted []core.Admitted
	for len(c.pending) > 0 {
		head := c.pending[0]
		charge := m.chargeFor(c, head.pid, head.size)
		if c.used+charge > c.grant {
			break
		}
		m.admit(c, head.pid, head.size)
		admitted = append(admitted, core.Admitted{Container: c.id, Ticket: head.ticket})
		c.pending = c.pending[1:]
	}
	return admitted
}

// redistribute is the paper's loop: reclaim paused containers' unused
// grants into the pool, then, while free memory and candidates remain,
// let the algorithm pick a container and grant it up to its limit.
func (m *Model) redistribute(d *mdevice) []core.Admitted {
	for _, c := range d.sorted() {
		if len(c.pending) > 0 && c.grant > c.used {
			d.pool += c.grant - c.used
			c.grant = c.used
		}
	}
	var admitted []core.Admitted
	for d.pool > 0 {
		cands := m.candidates(d)
		if len(cands) == 0 {
			break
		}
		i := m.pick(d, cands)
		if i < 0 || i >= len(cands) {
			break
		}
		c := cands[i].con
		give := cands[i].deficit
		if give > d.pool {
			give = d.pool
		}
		c.grant += give
		d.pool -= give
		admitted = append(admitted, m.admitFitting(d, c)...)
	}
	return admitted
}

// mcand is one redistribution candidate: the container plus its
// effective deficit (limit - grant, further capped by the tenant's
// quota headroom and guarantee-reserved pool share when named tenants
// are active) and the tenant attributes the tenant-aware wake policies
// order by.
type mcand struct {
	con     *mcontainer
	deficit bytesize.Size
	tWeight int
	tPrio   int
	tGrant  bytesize.Size // tenant's summed grants on this device
	tGuar   bytesize.Size
}

// candidates lists paused containers that more memory could help, in
// creation order. With named tenants active, candidates whose effective
// deficit clamps to zero are excluded, mirroring core.candidatesLocked.
func (m *Model) candidates(d *mdevice) []mcand {
	var grantSums map[string]bytesize.Size
	if d.namedTenants > 0 {
		grantSums = make(map[string]bytesize.Size)
		for _, c := range d.containers {
			grantSums[c.tenant.Name] += c.grant
		}
	}
	var out []mcand
	for _, c := range d.sorted() {
		if len(c.pending) == 0 || c.grant >= c.limit {
			continue
		}
		cand := mcand{con: c, deficit: c.limit - c.grant}
		if d.namedTenants > 0 {
			if hr := m.quotaHeadroom(d, c.tenant); cand.deficit > hr {
				cand.deficit = hr
			}
			if avail := m.availableFor(d, c.tenant); cand.deficit > avail {
				cand.deficit = avail
			}
			if cand.deficit <= 0 {
				continue
			}
			cand.tWeight = c.tenant.Weight
			cand.tPrio = c.tenant.Priority
			cand.tGrant = grantSums[c.tenant.Name]
			cand.tGuar = c.tenant.Guarantee
		}
		out = append(out, cand)
	}
	return out
}

// pick reimplements the paper's four algorithms and the tenant-aware
// wake policies over creation-ordered candidates. Independent from
// internal/core and internal/policy on purpose: a bug in either
// implementation diverges here.
func (m *Model) pick(d *mdevice, cands []mcand) int {
	switch m.cfg.Algorithm {
	case core.AlgFIFO:
		// Oldest container first.
		best := 0
		for i, c := range cands {
			if c.con.createdSeq < cands[best].con.createdSeq {
				best = i
			}
		}
		return best
	case core.AlgBestFit:
		// The largest deficit that still fits the pool ("closest, but not
		// exceed"); when nothing fits, the smallest deficit. Ties go to
		// the older container.
		fit, small := -1, -1
		for i, c := range cands {
			if c.deficit <= d.pool {
				if fit == -1 || c.deficit > cands[fit].deficit {
					fit = i
				}
			}
			if small == -1 || c.deficit < cands[small].deficit {
				small = i
			}
		}
		if fit != -1 {
			return fit
		}
		return small
	case core.AlgRecentUse:
		// Most recently suspended container; the first maximum wins ties.
		best := 0
		for i, c := range cands {
			if c.con.suspendSeq > cands[best].con.suspendSeq {
				best = i
			}
		}
		return best
	case core.AlgRandom:
		// Uniform over creation-ordered candidates; one Intn draw per
		// pick, exactly like core's seeded Random.
		return d.rng.Intn(len(cands))
	case algFairShare:
		// Smallest weighted tenant share (grant/weight ratio,
		// cross-multiplied), then creation order.
		best := 0
		for i, c := range cands {
			if i == 0 {
				continue
			}
			b := cands[best]
			sa := int64(c.tGrant) * mweight(b.tWeight)
			sb := int64(b.tGrant) * mweight(c.tWeight)
			if sa < sb || (sa == sb && c.con.createdSeq < b.con.createdSeq) {
				best = i
			}
		}
		return best
	case algQuota:
		// Largest guarantee shortfall first, then creation order.
		best := 0
		for i, c := range cands {
			if i == 0 {
				continue
			}
			b := cands[best]
			sa, sb := mshortfall(c), mshortfall(b)
			if sa > sb || (sa == sb && c.con.createdSeq < b.con.createdSeq) {
				best = i
			}
		}
		return best
	case algPriority:
		// Highest tenant priority first, then creation order.
		best := 0
		for i, c := range cands {
			if i == 0 {
				continue
			}
			b := cands[best]
			if c.tPrio > b.tPrio || (c.tPrio == b.tPrio && c.con.createdSeq < b.con.createdSeq) {
				best = i
			}
		}
		return best
	}
	return -1
}

// --- cross-check views ---

// ContainerView is the model's per-container state for snapshot
// comparison.
type ContainerView struct {
	ID      core.ContainerID
	Device  int
	Limit   bytesize.Size
	Grant   bytesize.Size
	Used    bytesize.Size
	Pending int
}

// Containers returns every registered container, sorted by ID.
func (m *Model) Containers() []ContainerView {
	var out []ContainerView
	for id, dev := range m.placement {
		c, ok := m.devs[dev].containers[id]
		if !ok {
			continue // placement pinned by RestorePlacement, not registered yet
		}
		out = append(out, ContainerView{
			ID: id, Device: dev,
			Limit: c.limit, Grant: c.grant, Used: c.used, Pending: len(c.pending),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Pools returns each device's ungranted memory, in device order.
func (m *Model) Pools() []bytesize.Size {
	out := make([]bytesize.Size, len(m.devs))
	for i, d := range m.devs {
		out[i] = d.pool
	}
	return out
}

// Device reports the device a registered container lives on.
func (m *Model) Device(id core.ContainerID) (int, bool) {
	dev, ok := m.placement[id]
	return dev, ok
}

func indexOfSize(sizes []bytesize.Size, size bytesize.Size) int {
	for i, s := range sizes {
		if s == size {
			return i
		}
	}
	return -1
}

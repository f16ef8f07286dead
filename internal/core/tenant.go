package core

import (
	"fmt"
	"sort"

	"convgpu/internal/bytesize"
)

// Tenant is the identity a container registers under when the scheduler
// is shared by more than one workload owner. The zero Tenant (empty
// Name) is the default tenant: containers registered through the plain
// Register path carry it, every tenant-aware code path treats it as
// exempt, and a scheduler that has only ever seen the zero Tenant
// behaves byte-identically to the single-tenant scheduler.
//
// Weight orders tenants under the weighted fair-share wake policy
// (zero or negative reads as 1). Priority orders tenants under the
// priority wake policy and entitles higher-priority tenants to preempt
// unused grants of strictly lower ones. Quota, when positive, is a hard
// per-device cap on the tenant's summed grants — enforced at admit,
// top-up, redistribution, restore and rescue time. Guarantee, when
// positive, is a soft reservation: pool memory is held back from other
// tenants while this tenant's summed grants sit below it.
type Tenant struct {
	Name      string
	Weight    int
	Priority  int
	Quota     bytesize.Size
	Guarantee bytesize.Size
}

// TenantUsage aggregates one named tenant's scheduler state on a
// device (or, via Router.Tenants, across devices and nodes).
type TenantUsage struct {
	Name       string        `json:"name"`
	Weight     int           `json:"weight,omitempty"`
	Priority   int           `json:"priority,omitempty"`
	Quota      bytesize.Size `json:"quota,omitempty"`
	Guarantee  bytesize.Size `json:"guarantee,omitempty"`
	Containers int           `json:"containers"`
	Suspended  int           `json:"suspended,omitempty"`
	Grant      bytesize.Size `json:"grant"`
	Used       bytesize.Size `json:"used"`
	Pending    int           `json:"pending,omitempty"`
}

// Holder describes a container holding grant, as the preemption hook
// sees it: identity, tenant attributes, and the memory position.
type Holder struct {
	ID         ContainerID
	Tenant     string
	Weight     int
	Priority   int
	Grant      bytesize.Size
	Used       bytesize.Size
	CreatedSeq uint64
}

// Preemptor is the optional interface a wake-order Algorithm implements
// to reclaim unused grant from running containers on behalf of a
// request that would otherwise suspend. Victims returns the containers
// to reclaim from, in reclaim order; the scheduler takes at most
// grant-used from each until need is covered. Returning nil declines.
// Victims must not mutate its arguments.
type Preemptor interface {
	Victims(need bytesize.Size, req Holder, holders []Holder) []ContainerID
}

// unboundedQuota stands in for "no cap" in headroom arithmetic.
const unboundedQuota = bytesize.Size(1) << 62

// tenantGrantSumsLocked sums grants per tenant name (the default
// tenant's containers aggregate under ""). Callers hold lockAll.
func (s *State) tenantGrantSumsLocked() map[string]bytesize.Size {
	sums := make(map[string]bytesize.Size)
	for _, c := range s.order {
		sums[c.tenant.Name] += c.grant
	}
	return sums
}

// quotaHeadroomLocked returns how much more grant tenant t may hold on
// this device before its quota is exhausted. The default tenant and
// tenants without a quota have unbounded headroom. Callers hold
// lockAll.
func (s *State) quotaHeadroomLocked(t Tenant) bytesize.Size {
	if t.Name == "" || t.Quota <= 0 {
		return unboundedQuota
	}
	var sum bytesize.Size
	for _, c := range s.order {
		if c.tenant.Name == t.Name {
			sum += c.grant
		}
	}
	if sum >= t.Quota {
		return 0
	}
	return t.Quota - sum
}

// availableForLocked returns the pool memory tenant t may draw on after
// honoring other tenants' guarantees: pool minus the summed shortfall
// (guarantee - grants, floored at zero) of every *other* named tenant,
// floored at zero. Callers hold lockAll.
func (s *State) availableForLocked(t Tenant) bytesize.Size {
	reserved := bytesize.Size(0)
	sums := s.tenantGrantSumsLocked()
	for _, c := range s.order {
		name := c.tenant.Name
		sum, unseen := sums[name]
		if name == "" || name == t.Name || !unseen || c.tenant.Guarantee <= 0 {
			continue
		}
		delete(sums, name) // the first guarantee of a name counts
		if sum < c.tenant.Guarantee {
			reserved += c.tenant.Guarantee - sum
		}
	}
	if reserved >= s.pool {
		return 0
	}
	return s.pool - reserved
}

// clampTakeLocked limits how much pool memory container c may move into
// its grant right now: the requested take, capped by c's tenant quota
// headroom (hard) and by the pool share left after other tenants'
// guarantees (soft). Callers hold lockAll and have already capped take
// by the pool itself.
func (s *State) clampTakeLocked(c *containerState, take bytesize.Size) bytesize.Size {
	if hr := s.quotaHeadroomLocked(c.tenant); take > hr {
		take = hr
	}
	if avail := s.availableForLocked(c.tenant); take > avail {
		take = avail
	}
	return take
}

// RegisterTenant is Register carrying a tenant identity. Containers of
// the zero Tenant behave exactly as plain Register's.
func (s *State) RegisterTenant(id ContainerID, limit bytesize.Size, t Tenant) (bytesize.Size, error) {
	s.lockAll()
	defer s.unlockAll()
	if _, ok := s.lookupLocked(id); ok {
		return 0, fmt.Errorf("%w: %s", ErrDuplicateContainer, id)
	}
	return s.registerLocked(id, limit, t)
}

// EnsureRegisteredTenant is EnsureRegistered carrying a tenant
// identity. For an already-known container the limit must match; the
// tenant binding is refreshed when the names agree (or the container
// had none), and an existing non-empty binding is kept otherwise —
// recovery replays must not silently migrate a container between
// tenants.
func (s *State) EnsureRegisteredTenant(id ContainerID, limit bytesize.Size, t Tenant) (bytesize.Size, error) {
	s.lockAll()
	defer s.unlockAll()
	if c, ok := s.lookupLocked(id); ok {
		if c.limit != limit {
			return 0, fmt.Errorf("%w: %s has %v, got %v", ErrLimitMismatch, id, c.limit, limit)
		}
		s.adoptTenantLocked(c, t)
		return c.grant, nil
	}
	return s.registerLocked(id, limit, t)
}

// adoptTenantLocked refreshes c's tenant binding with t per the
// EnsureRegisteredTenant contract. Callers hold lockAll.
func (s *State) adoptTenantLocked(c *containerState, t Tenant) {
	if t.Name == "" || (c.tenant.Name != "" && c.tenant.Name != t.Name) {
		return
	}
	if c.tenant.Name == "" {
		s.namedTenants++
	}
	c.tenant = t
}

// Tenants aggregates per-tenant usage for every named tenant on this
// device, sorted by name. Containers of the default tenant are not
// listed.
func (s *State) Tenants() []TenantUsage {
	s.lockAll()
	defer s.unlockAll()
	byName := make(map[string]*TenantUsage)
	for _, c := range s.order {
		if c.tenant.Name == "" {
			continue
		}
		u, ok := byName[c.tenant.Name]
		if !ok {
			u = &TenantUsage{
				Name:      c.tenant.Name,
				Weight:    c.tenant.Weight,
				Priority:  c.tenant.Priority,
				Quota:     c.tenant.Quota,
				Guarantee: c.tenant.Guarantee,
			}
			byName[c.tenant.Name] = u
		}
		u.Containers++
		if len(c.pending) > 0 {
			u.Suspended++
		}
		u.Grant += c.grant
		u.Used += c.used
		u.Pending += len(c.pending)
	}
	out := make([]TenantUsage, 0, len(byName))
	for _, u := range byName {
		out = append(out, *u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// tryPreemptLocked asks a Preemptor algorithm to reclaim unused grant
// from lower-ranked holders so that c's request (needing need more
// grant) can be admitted instead of suspended. It reclaims at most
// grant-used per victim, at most need in total, logs EvPreempt per
// victim, and then tops c up from the pool. It reports whether the
// request now fits. Callers hold lockAll; the preceding pool top-up has
// already run.
func (s *State) tryPreemptLocked(c *containerState, charge bytesize.Size) bool {
	p, ok := s.cfg.Algorithm.(Preemptor)
	if !ok {
		return false
	}
	need := c.used + charge - c.grant
	if need <= 0 {
		return false
	}
	// Preemption must not bust the requester's own quota; guarantees of
	// other tenants do not shield unused grant from a preemptor.
	if s.quotaHeadroomLocked(c.tenant) < need {
		return false
	}
	req := holderOf(c)
	var holders []Holder
	for _, h := range s.order {
		if h == c || h.grant <= h.used {
			continue
		}
		holders = append(holders, holderOf(h))
	}
	if len(holders) == 0 {
		return false
	}
	var reclaimed bytesize.Size
	for _, vid := range p.Victims(need, req, holders) {
		if reclaimed >= need {
			break
		}
		v, ok := s.lookupLocked(vid)
		if !ok || v == c || v.grant <= v.used {
			continue
		}
		take := v.grant - v.used
		if take > need-reclaimed {
			take = need - reclaimed
		}
		v.grant -= take
		s.pool += take
		reclaimed += take
		s.logEvent(EvPreempt, v, 0, take)
	}
	if reclaimed == 0 {
		return false
	}
	take := c.used + charge - c.grant
	if take > s.pool {
		take = s.pool
	}
	c.grant += take
	s.pool -= take
	return c.used+charge <= c.grant
}

func holderOf(c *containerState) Holder {
	return Holder{
		ID:         c.id,
		Tenant:     c.tenant.Name,
		Weight:     c.tenant.Weight,
		Priority:   c.tenant.Priority,
		Grant:      c.grant,
		Used:       c.used,
		CreatedSeq: c.createdSeq,
	}
}

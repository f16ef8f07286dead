// Tenant identity plumbing: the daemon resolves each registration's
// tenant, logs tenant definitions ahead of the sessions bound to
// them, and produces the per-tenant usage rollup.
//
// Resolution order: the daemon's configured tenant table
// (Config.Tenants) is the operator's authoritative definition and wins
// over attributes carried inline on the wire; an inline definition for
// a name the table does not know is adopted (and remembered) so
// self-describing clients work without pre-provisioning.

package daemon

import (
	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/protocol"
	"convgpu/internal/wal"
)

// tenantFromParts resolves a tenant identity from a name plus inline
// attributes (wire fields; a recovered session names a definition the
// log already folded into the table). The configured table wins; an unknown name's inline definition is
// adopted into the table. Empty name = default tenant.
func (d *Daemon) tenantFromParts(name string, weight, priority int, quota, guarantee int64) core.Tenant {
	if name == "" {
		return core.Tenant{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if t, ok := d.tenantDefs[name]; ok {
		return t
	}
	t := core.Tenant{
		Name:      name,
		Weight:    weight,
		Priority:  priority,
		Quota:     bytesize.Size(quota),
		Guarantee: bytesize.Size(guarantee),
	}
	d.tenantDefs[name] = t
	return t
}

// resolveTenant reads a request's tenant identity fields.
func (d *Daemon) resolveTenant(msg *protocol.Message) core.Tenant {
	return d.tenantFromParts(msg.Tenant, msg.TenantWeight, msg.TenantPriority, msg.TenantQuota, msg.TenantGuarantee)
}

// walTenantDef maps a core tenant onto the log's definition record.
func walTenantDef(t core.Tenant) wal.TenantDef {
	return wal.TenantDef{
		Name:      t.Name,
		Weight:    t.Weight,
		Priority:  t.Priority,
		Quota:     int64(t.Quota),
		Guarantee: int64(t.Guarantee),
	}
}

// persistTenant makes one tenant definition durable before the first
// session referencing it is acknowledged. Idempotent: a definition
// already folded into the log (and unchanged) is not re-appended.
// No-op for the default tenant.
func (d *Daemon) persistTenant(t core.Tenant) error {
	if t.Name == "" {
		return nil
	}
	d.mu.Lock()
	logged := d.tenantLogged[t.Name]
	d.mu.Unlock()
	if logged {
		return nil
	}
	rec, err := wal.TenantRecord(walTenantDef(t))
	if err != nil {
		return err
	}
	if err := d.walAppend(rec); err != nil {
		return err
	}
	d.mu.Lock()
	d.tenantLogged[t.Name] = true
	d.mu.Unlock()
	return nil
}

// Tenants reports the live per-tenant usage rollup from the scheduling
// backend (named tenants only, sorted by name).
func (d *Daemon) Tenants() []core.TenantUsage { return d.cfg.Core.Tenants() }

package daemon

import (
	"context"
	"path/filepath"
	"testing"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/ipc"
	"convgpu/internal/leak"
	"convgpu/internal/protocol"
	"convgpu/internal/wal"
)

// registerTenant registers a container over the control socket carrying
// a tenant identity on the wire.
func registerTenant(t *testing.T, ctl *ipc.Client, id string, limit bytesize.Size, ten core.Tenant) *protocol.Message {
	t.Helper()
	resp, err := ctl.Call(context.Background(), &protocol.Message{
		Type: protocol.TypeRegister, Container: id, Limit: int64(limit),
		Tenant: ten.Name, TenantWeight: ten.Weight, TenantPriority: ten.Priority,
		TenantQuota: int64(ten.Quota), TenantGuarantee: int64(ten.Guarantee),
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestTenantRegisterResolutionAndRollup covers the daemon's resolution
// order: the configured table is authoritative (inline attributes for a
// known name are ignored), an unknown name's inline definition is
// adopted, and the default tenant stays invisible in the rollup.
func TestTenantRegisterResolutionAndRollup(t *testing.T) {
	leak.Check(t)
	st := core.MustNew(core.Config{Capacity: mib(1000), ContextOverhead: 1})
	d, err := Start(Config{
		BaseDir: filepath.Join(t.TempDir(), "cv"), Core: st,
		Tenants: []core.Tenant{{Name: "gold", Weight: 4, Priority: 9, Quota: mib(600)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	ctl := dialControl(t, d)

	if got := d.Tenants(); len(got) != 0 {
		t.Fatalf("rollup before any registration = %+v, want empty", got)
	}

	// Known name with conflicting inline attributes: the table wins.
	if resp := registerTenant(t, ctl, "c1", mib(200), core.Tenant{Name: "gold", Weight: 1, Priority: 1}); !resp.OK {
		t.Fatalf("register c1: %s", resp.Error)
	}
	// Unknown name: the inline definition is adopted and remembered.
	if resp := registerTenant(t, ctl, "c2", mib(200), core.Tenant{Name: "adhoc", Weight: 2, Priority: 3}); !resp.OK {
		t.Fatalf("register c2: %s", resp.Error)
	}
	// Default tenant: no rollup entry.
	if resp := register(t, ctl, "c3", mib(100)); !resp.OK {
		t.Fatalf("register c3: %s", resp.Error)
	}

	byName := map[string]core.TenantUsage{}
	for _, u := range d.Tenants() {
		byName[u.Name] = u
	}
	if len(byName) != 2 {
		t.Fatalf("rollup = %+v, want gold and adhoc only", byName)
	}
	gold := byName["gold"]
	if gold.Weight != 4 || gold.Priority != 9 || gold.Quota != mib(600) {
		t.Fatalf("gold attributes %+v: inline fields overrode the configured table", gold)
	}
	adhoc := byName["adhoc"]
	if adhoc.Weight != 2 || adhoc.Priority != 3 || adhoc.Containers != 1 {
		t.Fatalf("adhoc attributes %+v, want the adopted inline definition", adhoc)
	}
	// A second registration under the adopted name resolves to the
	// remembered definition even with different inline fields.
	if resp := registerTenant(t, ctl, "c4", mib(100), core.Tenant{Name: "adhoc", Weight: 9, Priority: 9}); !resp.OK {
		t.Fatalf("register c4: %s", resp.Error)
	}
	info, err := st.Info("c4")
	if err != nil {
		t.Fatal(err)
	}
	if info.TenantDef.Weight != 2 || info.TenantDef.Priority != 3 {
		t.Fatalf("c4 tenant %+v, want the first-adopted adhoc definition", info.TenantDef)
	}
}

// TestTenantConfigRejected pins the table validation: entries must be
// named and unique.
func TestTenantConfigRejected(t *testing.T) {
	for _, table := range [][]core.Tenant{
		{{Name: ""}},
		{{Name: "a"}, {Name: "a"}},
	} {
		st := core.MustNew(core.Config{Capacity: mib(100), ContextOverhead: 1})
		d, err := Start(Config{BaseDir: filepath.Join(t.TempDir(), "cv"), Core: st, Tenants: table})
		if err == nil {
			d.Close()
			t.Fatalf("Start accepted tenant table %+v", table)
		}
	}
}

// TestTenantWALRecovery registers under a tenant carried inline on the
// wire, restarts the daemon from the log alone, and demands the full
// identity — not just the name — is rebound: the tenant definition
// record must precede the sessions referencing it in the fold.
func TestTenantWALRecovery(t *testing.T) {
	leak.Check(t)
	base := filepath.Join(t.TempDir(), "cv")
	walDir := filepath.Join(t.TempDir(), "wal")
	ten := core.Tenant{Name: "team-a", Weight: 3, Priority: 7, Quota: mib(500), Guarantee: mib(100)}

	l1 := openTestWAL(t, walDir)
	d1 := startWALDaemon(t, base, l1, mib(1000))
	ctl := dialControl(t, d1)
	if resp := registerTenant(t, ctl, "c1", mib(200), ten); !resp.OK {
		t.Fatalf("register c1: %s", resp.Error)
	}
	// Second session, same tenant: the definition is appended once.
	if resp := registerTenant(t, ctl, "c2", mib(200), core.Tenant{Name: "team-a"}); !resp.OK {
		t.Fatalf("register c2: %s", resp.Error)
	}
	d1.Close()
	l1.Close()

	l2 := openTestWAL(t, walDir)
	defer l2.Close()
	d2 := startWALDaemon(t, base, l2, mib(1000))
	defer d2.Close()
	for _, id := range []core.ContainerID{"c1", "c2"} {
		info, err := d2.Core().Info(id)
		if err != nil {
			t.Fatalf("session %s not recovered: %v", id, err)
		}
		if info.TenantDef != ten {
			t.Fatalf("%s recovered with tenant %+v, want %+v", id, info.TenantDef, ten)
		}
	}
	roll := d2.Tenants()
	if len(roll) != 1 || roll[0].Name != "team-a" || roll[0].Containers != 2 || roll[0].Weight != 3 {
		t.Fatalf("recovered rollup = %+v", roll)
	}
}

// TestTenantSessionFileRecovery is the legacy-persistence variant: with
// no WAL, the tenant identity rides in session.json and a restarted
// daemon (with the operator's table re-supplied) rebinds it.
func TestTenantSessionFileRecovery(t *testing.T) {
	leak.Check(t)
	base := filepath.Join(t.TempDir(), "cv")
	table := []core.Tenant{{Name: "gold", Weight: 4, Priority: 9}}

	st1 := core.MustNew(core.Config{Capacity: mib(1000), ContextOverhead: 1})
	d1, err := Start(Config{BaseDir: base, Core: st1, Tenants: table})
	if err != nil {
		t.Fatal(err)
	}
	ctl := dialControl(t, d1)
	if resp := registerTenant(t, ctl, "c1", mib(200), core.Tenant{Name: "gold"}); !resp.OK {
		t.Fatalf("register c1: %s", resp.Error)
	}
	d1.Close()

	st2 := core.MustNew(core.Config{Capacity: mib(1000), ContextOverhead: 1})
	d2, err := Start(Config{BaseDir: base, Core: st2, Tenants: table})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	info, err := st2.Info("c1")
	if err != nil {
		t.Fatalf("c1 not recovered: %v", err)
	}
	if info.Tenant != "gold" || info.TenantDef.Weight != 4 {
		t.Fatalf("c1 recovered with tenant %+v, want the configured gold definition", info.TenantDef)
	}
}

// TestTenantAttachRebind covers a pre-tenant session re-attaching under
// a tenant identity: the attach adopts the binding and persists it, so
// a subsequent restart converges on the tenant-bound session.
func TestTenantAttachRebind(t *testing.T) {
	t.Run("wal", func(t *testing.T) { testTenantAttachRebind(t, true) })
	t.Run("sessionfile", func(t *testing.T) { testTenantAttachRebind(t, false) })
}

func testTenantAttachRebind(t *testing.T, useWAL bool) {
	leak.Check(t)
	base := filepath.Join(t.TempDir(), "cv")
	walDir := filepath.Join(t.TempDir(), "wal")
	ten := core.Tenant{Name: "late", Weight: 2, Priority: 4}

	var d1 *Daemon
	var l1 *wal.Log
	if useWAL {
		l1 = openTestWAL(t, walDir)
		d1 = startWALDaemon(t, base, l1, mib(1000))
	} else {
		st := core.MustNew(core.Config{Capacity: mib(1000), ContextOverhead: 1})
		var err error
		d1, err = Start(Config{BaseDir: base, Core: st})
		if err != nil {
			t.Fatal(err)
		}
	}
	ctl := dialControl(t, d1)
	resp := register(t, ctl, "c1", mib(200)) // default tenant
	if !resp.OK {
		t.Fatalf("register c1: %s", resp.Error)
	}
	cli := dialContainer(t, resp)
	att, err := cli.Call(context.Background(), &protocol.Message{
		Type: protocol.TypeAttach, PID: 1,
		Tenant: ten.Name, TenantWeight: ten.Weight, TenantPriority: ten.Priority,
	})
	if err != nil || !att.OK {
		t.Fatalf("attach: %v %+v", err, att)
	}
	info, err := d1.Core().Info("c1")
	if err != nil {
		t.Fatal(err)
	}
	if info.TenantDef != ten {
		t.Fatalf("after attach, tenant = %+v, want %+v", info.TenantDef, ten)
	}
	cli.Close()
	ctl.Close()
	if useWAL {
		d1.Close()
		l1.Close()
		l2 := openTestWAL(t, walDir)
		defer l2.Close()
		d2 := startWALDaemon(t, base, l2, mib(1000))
		defer d2.Close()
		info, err := d2.Core().Info("c1")
		if err != nil {
			t.Fatalf("c1 not recovered: %v", err)
		}
		if info.TenantDef != ten {
			t.Fatalf("recovered tenant = %+v, want the adopted %+v", info.TenantDef, ten)
		}
	} else {
		d1.Close()
		st := core.MustNew(core.Config{Capacity: mib(1000), ContextOverhead: 1})
		d2, err := Start(Config{BaseDir: base, Core: st})
		if err != nil {
			t.Fatal(err)
		}
		defer d2.Close()
		info, err := st.Info("c1")
		if err != nil {
			t.Fatalf("c1 not recovered: %v", err)
		}
		if info.Tenant != ten.Name {
			t.Fatalf("recovered tenant name = %q, want %q", info.Tenant, ten.Name)
		}
	}
}

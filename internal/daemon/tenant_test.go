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
// record must precede the sessions referencing it in the fold. The
// default-log row does the same on the daemon's own log with the tenant
// defined in the operator's table (re-supplied at the restart), which
// wins over whatever the log folded.
func TestTenantWALRecovery(t *testing.T) {
	ten := core.Tenant{Name: "team-a", Weight: 3, Priority: 7, Quota: mib(500), Guarantee: mib(100)}
	for _, row := range []struct {
		name   string
		walDir string
		table  []core.Tenant
		inline core.Tenant // what c1's registration carries
	}{
		{name: "named log", walDir: filepath.Join(t.TempDir(), "wal"), inline: ten},
		{name: "default log", table: []core.Tenant{ten}, inline: core.Tenant{Name: "team-a", Weight: 9}},
	} {
		t.Run(row.name, func(t *testing.T) {
			leak.Check(t)
			base := filepath.Join(t.TempDir(), "cv")
			d1, stop := startOnLog(t, base, row.walDir, row.table)
			ctl := dialControl(t, d1)
			if resp := registerTenant(t, ctl, "c1", mib(200), row.inline); !resp.OK {
				t.Fatalf("register c1: %s", resp.Error)
			}
			// Second session, same tenant: the definition is appended once.
			if resp := registerTenant(t, ctl, "c2", mib(200), core.Tenant{Name: "team-a"}); !resp.OK {
				t.Fatalf("register c2: %s", resp.Error)
			}
			if got := d1.WALStats(); got.Appends != 3 || got.Tenants != 1 {
				t.Fatalf("log after two registrations under one tenant = %+v, want 3 appends and 1 definition", got)
			}
			stop()

			d2, stop := startOnLog(t, base, row.walDir, row.table)
			defer stop()
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
		})
	}
}

// TestTenantAttachRebind covers a pre-tenant session re-attaching under
// a tenant identity: the attach adopts the binding and persists it, so
// a subsequent restart converges on the tenant-bound session.
func TestTenantAttachRebind(t *testing.T) {
	t.Run("wal", func(t *testing.T) { testTenantAttachRebind(t, filepath.Join(t.TempDir(), "wal")) })
	t.Run("default log", func(t *testing.T) { testTenantAttachRebind(t, "") })
}

func testTenantAttachRebind(t *testing.T, walDir string) {
	leak.Check(t)
	base := filepath.Join(t.TempDir(), "cv")
	ten := core.Tenant{Name: "late", Weight: 2, Priority: 4}

	d1, stop := startOnLog(t, base, walDir, nil)
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
	stop()
	d2, stop := startOnLog(t, base, walDir, nil)
	defer stop()
	info, err = d2.Core().Info("c1")
	if err != nil {
		t.Fatalf("c1 not recovered: %v", err)
	}
	if info.TenantDef != ten {
		t.Fatalf("recovered tenant = %+v, want the adopted %+v", info.TenantDef, ten)
	}
}

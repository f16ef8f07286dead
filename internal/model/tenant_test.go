package model_test

import (
	"fmt"
	"testing"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/model"
	"convgpu/internal/policy"
)

// tenantTable is the fixed tenant set tenant streams register under:
// weights apart by powers of two for fair-share ordering, priorities
// spread for preemption, a hard quota on two tenants (one tight enough
// to clamp registrations against the 1 GiB device) and guarantees on
// two (so the guarantee-reserved pool share bites other tenants'
// top-ups).
func tenantTable() []core.Tenant {
	return []core.Tenant{
		{Name: "gold", Weight: 4, Priority: 10, Guarantee: 256 * bytesize.MiB},
		{Name: "silver", Weight: 2, Priority: 5, Quota: 600 * bytesize.MiB},
		{Name: "bronze", Weight: 1, Priority: 1, Quota: 448 * bytesize.MiB, Guarantee: 128 * bytesize.MiB},
	}
}

// tenantAlgorithms is every wake policy the oracle checks under
// tenants: the paper's four (whose clamp arithmetic activates once a
// named tenant registers) plus the three tenant-aware policies.
func tenantAlgorithms() []string {
	return append(core.AlgorithmNames(),
		policy.WakeFairShare, policy.WakeQuota, policy.WakePriority)
}

// tenantBackends is backends() carrying the tenant table.
func tenantBackends(alg string, seed int64) []model.Backend {
	bs := backends(alg, seed)
	for i := range bs {
		bs[i].Tenants = tenantTable()
	}
	return bs
}

// TestTenantConformance drives every wake policy on every topology
// through tenant-carrying op streams, comparing each step, each
// post-step snapshot, and the per-tenant rollup against the fairness/
// quota oracle. The register mix keeps ~1/4 of containers on the
// default tenant, so the mixed default/named arithmetic is covered too.
func TestTenantConformance(t *testing.T) {
	for _, alg := range tenantAlgorithms() {
		for _, seed := range seedsToRun() {
			for _, b := range tenantBackends(alg, seed) {
				b, alg, seed := b, alg, seed
				t.Run(fmt.Sprintf("%s/%s/seed%d", alg, b.Name, seed), func(t *testing.T) {
					t.Parallel()
					g := model.DefaultGenConfig()
					g.Restarts = b.Restart != nil
					g.TenantSlots = 3
					ops := model.Generate(seed+3000, *opCount, g)
					div, err := model.RunOps(b, ops)
					if err != nil {
						t.Fatalf("harness error: %v", err)
					}
					if div != nil {
						reportDivergence(t, b, alg, seed, ops, div)
					}
				})
			}
		}
	}
}

// TestTenantConformanceNodeKill runs tenant streams densified with node
// kills on the 2x2 cluster: a failover must carry every container's
// tenant binding to the surviving node (the harness rejects a migration
// whose reported tenant differs from the registered one) and the
// post-failover rollups must still match the oracle.
func TestTenantConformanceNodeKill(t *testing.T) {
	for _, alg := range []string{core.AlgFIFO, policy.WakeFairShare, policy.WakePriority} {
		for _, seed := range seedsToRun() {
			b := tenantBackends(alg, seed)[2] // cluster-2x2
			b, alg, seed := b, alg, seed
			t.Run(fmt.Sprintf("%s/%s/seed%d", alg, b.Name, seed), func(t *testing.T) {
				t.Parallel()
				g := model.DefaultGenConfig()
				g.NodeKills = true
				g.TenantSlots = 3
				ops := model.Generate(seed+4000, *opCount, g)
				for i := 15; i < len(ops); i += 20 {
					ops[i] = model.Op{Kind: model.OpNodeKill, Pick: i / 20}
				}
				div, err := model.RunOps(b, ops)
				if err != nil {
					t.Fatalf("harness error: %v", err)
				}
				if div != nil {
					reportDivergence(t, b, alg, seed, ops, div)
				}
			})
		}
	}
}

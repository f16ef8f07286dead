// Policy benchmarks (run `make bench-policy`): the cost of the wake
// policies on the paths a policy can actually tax, measured per policy
// so a regression is attributable to one of them:
//
//	BenchmarkPolicyAdmit/<name>    steady-state within-grant
//	                               admit/confirm/free under two named
//	                               tenants — the fast path must stay flat
//	                               (and allocation-free) no matter which
//	                               policy is installed
//	BenchmarkPolicyPick/<name>     the pure wake decision over a fixed
//	                               64-candidate set — where the policies
//	                               genuinely differ
//	BenchmarkPolicyPreemption      one full preempt-admit cycle under the
//	                               priority policy: a high-priority
//	                               tenant's request reclaims an idle
//	                               low-priority grant and is admitted
//	BenchmarkPolicyCloseAdmit/<n>  a close that admits one suspended
//	                               ticket among n idle residents — the
//	                               slow path must not grow with them
//	BenchmarkPolicyHeteroPlace/<name>  the pure placement decision over a
//	                               fixed 16-device MIG-style
//	                               mixed-capacity summary, per placement
//	                               policy — where fragaware pays for its
//	                               capacity-argmin scan
//
// BENCH_policy.txt is the committed baseline `make benchdiff-policy`
// compares against; allocation counts are deterministic, so the strict
// gate gives them no slack.
package convgpu_test

import (
	"fmt"
	"testing"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/policy"
)

func benchTenant(name string, prio int) core.Tenant {
	return core.Tenant{Name: name, Weight: prio, Priority: prio}
}

// BenchmarkPolicyAdmit measures the steady-state admit cycle with two
// named tenants registered: every wake policy must leave the
// within-grant fast path untouched, so these numbers should be
// indistinguishable across policies (and a spread here means a policy
// leaked work onto the hot path).
func BenchmarkPolicyAdmit(b *testing.B) {
	for _, name := range policy.WakeNames() {
		b.Run(name, func(b *testing.B) {
			alg, err := policy.NewWake(name, policy.Config{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			s, err := core.New(core.Config{
				Capacity: 4 * bytesize.GiB, ContextOverhead: 1, Algorithm: alg,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.RegisterTenant("bench-a", 2*bytesize.GiB, benchTenant("gold", 8)); err != nil {
				b.Fatal(err)
			}
			if _, err := s.RegisterTenant("bench-b", 1*bytesize.GiB, benchTenant("bronze", 1)); err != nil {
				b.Fatal(err)
			}
			const size = 64 * bytesize.MiB
			// Prime the pid's context overhead so iterations are uniform.
			if _, err := s.RequestAlloc("bench-a", 1, size); err != nil {
				b.Fatal(err)
			}
			if err := s.ConfirmAlloc("bench-a", 1, 0x1, size); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := s.RequestAlloc("bench-a", 1, size)
				if err != nil || res.Decision != core.Accept {
					b.Fatalf("admit: %v %v", res.Decision, err)
				}
				addr := uint64(0x1000 + i)
				if err := s.ConfirmAlloc("bench-a", 1, addr, size); err != nil {
					b.Fatal(err)
				}
				if _, _, err := s.Free("bench-a", 1, addr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPolicyPick measures the bare wake decision: one Pick over a
// fixed 64-candidate set spanning four tenants with distinct weights,
// priorities, grants, and deficits. This is the only per-policy cost on
// the redistribution path, so it is the number a wake policy's author
// budgets against.
func BenchmarkPolicyPick(b *testing.B) {
	cands := make([]core.Candidate, 64)
	tenants := []string{"", "gold", "silver", "bronze"}
	for i := range cands {
		tn := tenants[i%len(tenants)]
		cands[i] = core.Candidate{
			ID:              core.ContainerID(fmt.Sprintf("c%d", i)),
			CreatedSeq:      uint64(i + 1),
			SuspendSeq:      uint64(64 - i),
			Deficit:         bytesize.Size(8+i%17) * bytesize.MiB,
			Tenant:          tn,
			TenantWeight:    1 + i%4,
			TenantPriority:  i % 5,
			TenantGrant:     bytesize.Size(64+i*3) * bytesize.MiB,
			TenantGuarantee: bytesize.Size(i%2) * 128 * bytesize.MiB,
		}
	}
	const pool = 512 * bytesize.MiB
	for _, name := range policy.WakeNames() {
		b.Run(name, func(b *testing.B) {
			alg, err := policy.NewWake(name, policy.Config{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if k := alg.Pick(pool, cands); k < 0 || k >= len(cands) {
					b.Fatalf("pick returned %d", k)
				}
			}
		})
	}
}

// BenchmarkPolicyHeteroPlace measures the bare placement decision over
// a fixed 16-device heterogeneous summary mixing MIG-style instance
// sizes (5/10/20/40 GiB) at varying fill levels. Placement runs once
// per container registration — not per allocation — so wall time is
// informational; the allocation count is the budget: every registered
// placement policy must decide without allocating.
func BenchmarkPolicyHeteroPlace(b *testing.B) {
	caps := []bytesize.Size{5, 10, 20, 40}
	devs := make([]core.DeviceInfo, 16)
	for i := range devs {
		c := caps[i%len(caps)] * bytesize.GiB
		devs[i] = core.DeviceInfo{
			Index:      i,
			Capacity:   c,
			PoolFree:   c / bytesize.Size(i%3+1),
			Containers: i % 5,
		}
	}
	const limit = 4 * bytesize.GiB
	for _, name := range policy.PlaceNames() {
		b.Run(name, func(b *testing.B) {
			pol, err := policy.NewPlace(name, policy.Config{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if k := pol.Place(limit, devs); k < 0 || k >= len(devs) {
					b.Fatalf("place returned %d", k)
				}
			}
		})
	}
}

// BenchmarkPolicyPreemption measures one full preempt-admit cycle: a
// low-priority tenant registers and absorbs the whole pool as idle
// grant, then a high-priority tenant's first allocation must reclaim it
// through the priority policy's Victims hook to be admitted. The cycle
// includes the registrations and closes needed to reset the device, so
// ns/op is the end-to-end latency of provisioning-through-preemption,
// not the bare reclaim.
func BenchmarkPolicyPreemption(b *testing.B) {
	alg, err := policy.NewWake(policy.WakePriority, policy.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.New(core.Config{
		Capacity: 1 * bytesize.GiB, ContextOverhead: 1, Algorithm: alg,
	})
	if err != nil {
		b.Fatal(err)
	}
	lo := benchTenant("batch", 1)
	hi := benchTenant("interactive", 9)
	const size = 256 * bytesize.MiB
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The victim soaks up the full capacity as an idle grant...
		if _, err := s.RegisterTenant("victim", 1*bytesize.GiB, lo); err != nil {
			b.Fatal(err)
		}
		// ...so the preemptor registers with a zero grant and its first
		// request can only be admitted by reclaiming from the victim.
		if _, err := s.RegisterTenant("preemptor", 512*bytesize.MiB, hi); err != nil {
			b.Fatal(err)
		}
		res, err := s.RequestAlloc("preemptor", 1, size)
		if err != nil {
			b.Fatal(err)
		}
		if res.Decision != core.Accept {
			b.Fatalf("preempting request not admitted: %v", res.Decision)
		}
		if err := s.ConfirmAlloc("preemptor", 1, uint64(0x1000+i), size); err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.Close("preemptor"); err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.Close("victim"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicyCloseAdmit measures a close that admits one suspended
// ticket, among 32 and among 3,200 idle residents: a holder and a
// newcomer register, the holder's request is accepted, the newcomer's
// suspends on its partial grant, and the holder's close redistributes
// to it. Like BenchmarkPolicyPreemption the cycle includes the
// registrations and closes that reset the device. The residents are
// never paused: allocs/op must not grow with them, while ns/op grows by
// the slow path's walks over the creation-ordered container list.
func BenchmarkPolicyCloseAdmit(b *testing.B) {
	for _, residents := range []int{32, 3200} {
		b.Run(fmt.Sprint(residents), func(b *testing.B) {
			s, err := core.New(core.Config{
				Capacity: bytesize.Size(residents+200) * bytesize.MiB, ContextOverhead: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < residents; i++ {
				if _, err := s.Register(core.ContainerID(fmt.Sprintf("resident-%d", i)), bytesize.MiB); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Register("holder", 100*bytesize.MiB); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Register("newcomer", 150*bytesize.MiB); err != nil {
					b.Fatal(err)
				}
				if res, err := s.RequestAlloc("holder", 1, 50*bytesize.MiB); err != nil || res.Decision != core.Accept {
					b.Fatalf("holder: %v %v", res.Decision, err)
				}
				if res, err := s.RequestAlloc("newcomer", 1, 120*bytesize.MiB); err != nil || res.Decision != core.Suspend {
					b.Fatalf("newcomer: %v %v", res.Decision, err)
				}
				if _, u, err := s.Close("holder"); err != nil || len(u.Admitted) != 1 {
					b.Fatalf("close admitted %d tickets: %v", len(u.Admitted), err)
				}
				if _, _, err := s.Close("newcomer"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

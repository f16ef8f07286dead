package model_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"convgpu/internal/bytesize"
	"convgpu/internal/cluster"
	"convgpu/internal/core"
	"convgpu/internal/model"
	"convgpu/internal/policy"
)

// TestTenantCrossNodeRollup is the directed conformance test for
// cluster-wide tenant arithmetic when tenants span nodes: the generic
// sweeps above land tenants wherever the op stream happens to place
// them, but the fairness rollup a multi-node operator reads
// (Cluster.Tenants, summed across nodes by the router) is only
// trustworthy if it matches the oracle when every tenant's containers
// are deliberately spread over both nodes — and keeps matching after a
// node failover migrates half of each tenant's fleet. The test drives
// cluster and model in lockstep, proves the spread with NodePlacement,
// kills node 0, replays the failover report into the model exactly as
// the harness does, and re-compares the sorted rollups.
func TestTenantCrossNodeRollup(t *testing.T) {
	for _, alg := range []string{core.AlgFIFO, policy.WakeFairShare, policy.WakePriority} {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			t.Parallel()
			const seed = 7
			st, err := policy.NewScheduler(policy.Spec{
				Nodes: 2, Devices: 2, Capacity: capacity,
				Wake: alg, Seed: seed, Device: core.Config{ContextOverhead: overhead},
			})
			if err != nil {
				t.Fatal(err)
			}
			clus := st.(*cluster.Cluster)
			m := model.New(model.Config{
				Devices: 4, Capacity: capacity, Overhead: overhead,
				Algorithm: alg,
				AlgSeeds:  []int64{seed, seed + 1, seed + 100, seed + 101},
				Routed:    true,
			})
			table := tenantTable()
			flatOf := func(id core.ContainerID) int {
				node, dev, perr := clus.NodePlacement(id)
				if perr != nil {
					t.Fatalf("placement of %s: %v", id, perr)
				}
				return node*2 + dev
			}

			// Twelve containers, tenants round-robin, so each named
			// tenant fields four containers for four devices: any sane
			// placement spreads every tenant over both nodes, and the
			// spread is asserted below rather than assumed.
			type pendTicket struct {
				ticket core.Ticket
				pid    int
				size   bytesize.Size
			}
			pend := make(map[core.ContainerID][]pendTicket)
			nodesOf := make(map[string]map[int]bool)
			nextAddr := uint64(0x1000)
			for i := 0; i < 12; i++ {
				id := core.ContainerID(fmt.Sprintf("c%d", i))
				ten := table[i%len(table)]
				limit := 300 * bytesize.MiB
				rg, rerr := clus.RegisterTenant(id, limit, ten)
				if rerr != nil {
					t.Fatalf("register %s: %v", id, rerr)
				}
				flat := flatOf(id)
				mg, merr := m.RegisterTenant(id, limit, flat, ten)
				if merr != nil {
					t.Fatalf("model refuses registration of %s at device %d: %v", id, flat, merr)
				}
				if rg != mg {
					t.Fatalf("%s: cluster granted %v, model %v", id, rg, mg)
				}
				if nodesOf[ten.Name] == nil {
					nodesOf[ten.Name] = make(map[int]bool)
				}
				nodesOf[ten.Name][flat/2] = true

				// Two allocations per container: the second pushes past
				// the clamped grants, so a share of requests suspends
				// and the rollup's Pending/Suspended columns are live.
				for pid := 1; pid <= 2; pid++ {
					size := 120 * bytesize.MiB
					rres, raerr := clus.RequestAlloc(id, pid, size)
					mres, maerr := m.RequestAlloc(id, pid, size)
					if (raerr == nil) != (maerr == nil) {
						t.Fatalf("%s pid %d: alloc error mismatch: real %v model %v", id, pid, raerr, maerr)
					}
					if raerr != nil {
						continue
					}
					if rres.Decision != mres.Decision {
						t.Fatalf("%s pid %d: cluster decides %v, model %v", id, pid, rres.Decision, mres.Decision)
					}
					switch rres.Decision {
					case core.Accept:
						nextAddr += 0x1000
						if cerr := clus.ConfirmAlloc(id, pid, nextAddr, size); cerr != nil {
							t.Fatalf("confirm %s: %v", id, cerr)
						}
						if cerr := m.ConfirmAlloc(id, pid, nextAddr, size); cerr != nil {
							t.Fatalf("model confirm %s: %v", id, cerr)
						}
					case core.Suspend:
						if rres.Ticket != mres.Ticket {
							t.Fatalf("%s pid %d: ticket %d vs model %d", id, pid, rres.Ticket, mres.Ticket)
						}
						pend[id] = append(pend[id], pendTicket{rres.Ticket, pid, size})
					}
				}
			}

			// Pre-kill: every named tenant must actually span both
			// nodes, or the cross-node claim below is vacuous.
			for name, nodes := range nodesOf {
				if len(nodes) < 2 {
					t.Fatalf("tenant %s landed on a single node %v — placement no longer spreads, test is vacuous", name, nodes)
				}
			}
			if d := diffRollups(clus.Tenants(), m.Tenants()); d != "" {
				t.Fatalf("pre-kill tenant rollup diverges:\n%s", d)
			}

			// Kill node 0 and replay the report into the model the way
			// the harness does: reset the dead devices, re-register each
			// migrated container at its reported target under the SAME
			// tenant, re-queue its parked tickets.
			rep, ferr := clus.FailNode(0)
			if ferr != nil {
				t.Fatal(ferr)
			}
			m.ResetDevices([]int{0, 1})
			moved := 0
			for _, mv := range rep.Moves {
				if len(mv.Tickets) != len(pend[mv.ID]) {
					t.Fatalf("%s: failover accounts %d tickets, %d were parked", mv.ID, len(mv.Tickets), len(pend[mv.ID]))
				}
				delete(pend, mv.ID)
				if mv.Evicted {
					continue
				}
				if mv.Tenant.Name == "" {
					t.Fatalf("%s migrated without its tenant binding", mv.ID)
				}
				flat := flatOf(mv.ID)
				if flat/2 != mv.To {
					t.Fatalf("%s reported on node %d but placed on device %d", mv.ID, mv.To, flat)
				}
				moved++
				mg, merr := m.RegisterTenant(mv.ID, mv.Limit, flat, mv.Tenant)
				if merr != nil {
					t.Fatalf("model refuses migrated registration of %s: %v", mv.ID, merr)
				}
				if mg != mv.Granted {
					t.Fatalf("%s migrated with grant %v, model predicts %v", mv.ID, mv.Granted, mg)
				}
				for _, tm := range mv.Tickets {
					res, merr := m.RequestAlloc(mv.ID, tm.PID, tm.Size)
					if merr != nil {
						t.Fatalf("model refuses re-queued ticket %d of %s: %v", tm.OldTicket, mv.ID, merr)
					}
					switch tm.Outcome {
					case core.TicketAdmitted:
						if res.Decision != core.Accept {
							t.Fatalf("%s ticket %d admitted by failover, model decides %v", mv.ID, tm.OldTicket, res.Decision)
						}
						nextAddr += 0x1000
						if cerr := clus.ConfirmAlloc(mv.ID, tm.PID, nextAddr, tm.Size); cerr != nil {
							t.Fatalf("confirm failover-admitted ticket %d: %v", tm.OldTicket, cerr)
						}
						if cerr := m.ConfirmAlloc(mv.ID, tm.PID, nextAddr, tm.Size); cerr != nil {
							t.Fatalf("model confirm of failover-admitted ticket %d: %v", tm.OldTicket, cerr)
						}
					case core.TicketMigrated:
						if res.Decision != core.Suspend || res.Ticket != tm.NewTicket {
							t.Fatalf("%s ticket %d re-parked as %d, model decides %v ticket %d",
								mv.ID, tm.OldTicket, tm.NewTicket, res.Decision, res.Ticket)
						}
					case core.TicketEvicted:
						if res.Decision != core.Reject {
							t.Fatalf("%s ticket %d evicted by failover, model decides %v", mv.ID, tm.OldTicket, res.Decision)
						}
					}
				}
			}
			if moved == 0 {
				t.Fatal("failover migrated nothing — node 0 held no containers, test is vacuous")
			}

			// The post-failover rollup must still agree: every tenant's
			// surviving grant/used/pending, summed across nodes, matches
			// the oracle's arithmetic.
			if d := diffRollups(clus.Tenants(), m.Tenants()); d != "" {
				t.Fatalf("post-failover tenant rollup diverges:\n%s", d)
			}
		})
	}
}

// diffRollups compares two tenant rollups order-insensitively and
// returns a description of the first difference, or "".
func diffRollups(a, b []core.TenantUsage) string {
	sort.Slice(a, func(i, j int) bool { return a[i].Name < a[j].Name })
	sort.Slice(b, func(i, j int) bool { return b[i].Name < b[j].Name })
	if len(a) != len(b) {
		return fmt.Sprintf("real has %d tenants, model %d\nreal:  %+v\nmodel: %+v", len(a), len(b), a, b)
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return fmt.Sprintf("tenant %s:\nreal:  %+v\nmodel: %+v", a[i].Name, a[i], b[i])
		}
	}
	return ""
}

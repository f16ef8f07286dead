package policy

import (
	"fmt"
	"math/rand"
	"testing"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
)

// TestPreemptionNeverLosesTicket is the property test for the priority
// policy's preemption path: across seeded, overcommitted two-priority
// streams, every ticket issued by a Suspend decision must be resolved
// exactly once — admitted (and then confirmable) or cancelled — and the
// scheduler invariants must hold after every single operation. At the
// end of each stream every container is closed and the pending set must
// drain to empty: a preempted grant may re-park or evict work, but it
// may never silently lose a ticket. The test also demands the streams
// actually exercise preemption (EvPreempt events observed), so a
// regression that quietly disables the Preemptor path fails loudly
// instead of vacuously passing.
func TestPreemptionNeverLosesTicket(t *testing.T) {
	const (
		capacity  = 1 * bytesize.GiB
		overhead  = 16 * bytesize.MiB
		slots     = 6
		opsPerRun = 400
	)
	tenantOf := func(slot int) core.Tenant {
		if slot%2 == 0 {
			return core.Tenant{Name: "batch", Weight: 1, Priority: 1}
		}
		return core.Tenant{Name: "interactive", Weight: 4, Priority: 9}
	}

	var totalPreempts int
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			alg, err := NewWake(WakePriority, Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			s, err := core.New(core.Config{
				Capacity: capacity, ContextOverhead: overhead, Algorithm: alg,
			})
			if err != nil {
				t.Fatal(err)
			}
			s.SetObserver(func(ev core.EventRecord) {
				if ev.Kind == core.EvPreempt {
					totalPreempts++
				}
			})

			type ticketRec struct {
				id   core.ContainerID
				pid  int
				size bytesize.Size
			}
			type allocRec struct {
				pid  int
				addr uint64
				size bytesize.Size
			}
			pending := make(map[core.Ticket]ticketRec)
			live := make(map[int][]allocRec)
			registered := make(map[int]bool)
			var nextAddr uint64

			apply := func(step int, u core.Update) {
				for _, ad := range u.Admitted {
					rec, ok := pending[ad.Ticket]
					if !ok {
						t.Fatalf("step %d: admitted ticket %d was never issued or already resolved", step, ad.Ticket)
					}
					if rec.id != ad.Container {
						t.Fatalf("step %d: ticket %d issued to %s, admitted for %s", step, ad.Ticket, rec.id, ad.Container)
					}
					delete(pending, ad.Ticket)
					nextAddr++
					if err := s.ConfirmAlloc(rec.id, rec.pid, nextAddr, rec.size); err != nil {
						t.Fatalf("step %d: confirm of admitted ticket %d failed: %v", step, ad.Ticket, err)
					}
					slot := slotOfID(rec.id)
					live[slot] = append(live[slot], allocRec{pid: rec.pid, addr: nextAddr, size: rec.size})
				}
				for _, ca := range u.Cancelled {
					rec, ok := pending[ca.Ticket]
					if !ok {
						t.Fatalf("step %d: cancelled ticket %d was never issued or already resolved", step, ca.Ticket)
					}
					if rec.id != ca.Container {
						t.Fatalf("step %d: ticket %d issued to %s, cancelled for %s", step, ca.Ticket, rec.id, ca.Container)
					}
					delete(pending, ca.Ticket)
				}
			}
			closeSlot := func(step, slot int) {
				id := slotID(slot)
				_, u, err := s.Close(id)
				if err != nil {
					t.Fatalf("step %d: close %s: %v", step, id, err)
				}
				apply(step, u)
				registered[slot] = false
				delete(live, slot)
			}

			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPerRun; i++ {
				slot := rng.Intn(slots)
				id := slotID(slot)
				switch w := rng.Intn(100); {
				case w < 18: // register
					if registered[slot] {
						break
					}
					limit := bytesize.Size(300+rng.Intn(500)) * bytesize.MiB
					if _, err := s.RegisterTenant(id, limit, tenantOf(slot)); err != nil {
						t.Fatalf("step %d: register %s: %v", i, id, err)
					}
					registered[slot] = true
				case w < 62: // alloc
					if !registered[slot] {
						break
					}
					pid := 1 + rng.Intn(3)
					size := bytesize.Size(32+rng.Intn(352)) * bytesize.MiB
					res, err := s.RequestAlloc(id, pid, size)
					if err != nil {
						break // over-limit or similar expected error
					}
					switch res.Decision {
					case core.Accept:
						nextAddr++
						if err := s.ConfirmAlloc(id, pid, nextAddr, size); err != nil {
							t.Fatalf("step %d: confirm accepted alloc: %v", i, err)
						}
						live[slot] = append(live[slot], allocRec{pid: pid, addr: nextAddr, size: size})
					case core.Suspend:
						if _, dup := pending[res.Ticket]; dup {
							t.Fatalf("step %d: ticket %d issued twice", i, res.Ticket)
						}
						pending[res.Ticket] = ticketRec{id: id, pid: pid, size: size}
					}
				case w < 82: // free
					la := live[slot]
					if !registered[slot] || len(la) == 0 {
						break
					}
					k := rng.Intn(len(la))
					_, u, err := s.Free(id, la[k].pid, la[k].addr)
					if err != nil {
						t.Fatalf("step %d: free: %v", i, err)
					}
					live[slot] = append(la[:k:k], la[k+1:]...)
					apply(i, u)
				case w < 92: // process exit
					if !registered[slot] {
						break
					}
					pid := 1 + rng.Intn(3)
					_, u, err := s.ProcessExit(id, pid)
					if err != nil {
						t.Fatalf("step %d: procexit: %v", i, err)
					}
					var keep []allocRec
					for _, a := range live[slot] {
						if a.pid != pid {
							keep = append(keep, a)
						}
					}
					live[slot] = keep
					apply(i, u) // the exiting pid's tickets arrive via u.Cancelled
				default: // close
					if !registered[slot] {
						break
					}
					closeSlot(i, slot)
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("step %d: invariant violation: %v", i, err)
				}
			}

			// Drain: close everything and demand no ticket is left behind.
			for slot := 0; slot < slots; slot++ {
				if registered[slot] {
					closeSlot(opsPerRun, slot)
				}
			}
			if len(pending) != 0 {
				t.Fatalf("after closing all containers, %d tickets unresolved: %v", len(pending), pending)
			}
		})
	}
	if totalPreempts == 0 {
		t.Fatalf("no EvPreempt events across any seed: the property test no longer exercises preemption")
	}
	t.Logf("observed %d preemption events across seeds", totalPreempts)
}

func slotID(slot int) core.ContainerID {
	return core.ContainerID(fmt.Sprintf("p%d", slot))
}

func slotOfID(id core.ContainerID) int {
	var n int
	fmt.Sscanf(string(id), "p%d", &n)
	return n
}

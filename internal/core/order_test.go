package core

import (
	"fmt"
	"testing"
)

// TestSlowPathFlatInResidents: the slow path walks State.order, so what
// a release that admits a ticket allocates, and what Info allocates, does
// not grow with the number of idle residents. Counted, not timed.
func TestSlowPathFlatInResidents(t *testing.T) {
	measure := func(residents int) (cycle, info float64) {
		s := MustNew(Config{Capacity: mib(residents + 200), ContextOverhead: 1})
		for i := 0; i < residents; i++ {
			if _, err := s.Register(ContainerID(fmt.Sprintf("resident-%d", i)), mib(1)); err != nil {
				t.Fatal(err)
			}
		}
		// a takes 100 MiB in full and b the 100 MiB left of its 150; b's
		// request suspends, and a's close admits it.
		cycle = testing.AllocsPerRun(50, func() {
			if _, err := s.Register("a", mib(100)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Register("b", mib(150)); err != nil {
				t.Fatal(err)
			}
			if res, err := s.RequestAlloc("a", 1, mib(50)); err != nil || res.Decision != Accept {
				t.Fatalf("a: %v %v, want accept", res.Decision, err)
			}
			if res, err := s.RequestAlloc("b", 1, mib(120)); err != nil || res.Decision != Suspend {
				t.Fatalf("b: %v %v, want suspend", res.Decision, err)
			}
			if _, u, err := s.Close("a"); err != nil || len(u.Admitted) != 1 {
				t.Fatalf("close a admitted %v (%v), want b's ticket", u.Admitted, err)
			}
			if _, _, err := s.Close("b"); err != nil {
				t.Fatal(err)
			}
		})
		info = testing.AllocsPerRun(50, func() {
			if _, err := s.Info("resident-0"); err != nil {
				t.Fatal(err)
			}
		})
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return cycle, info
	}
	smallCycle, smallInfo := measure(32)
	largeCycle, largeInfo := measure(3200)
	t.Logf("allocations among 32 / 3200 residents: cycle %v / %v, Info %v / %v", smallCycle, largeCycle, smallInfo, largeInfo)
	if smallCycle != largeCycle {
		t.Errorf("register-suspend-close-admit cycle allocates %v among 32 residents and %v among 3200; want the same", smallCycle, largeCycle)
	}
	if smallInfo != largeInfo {
		t.Errorf("Info allocates %v among 32 residents and %v among 3200; want the same", smallInfo, largeInfo)
	}
}

// TestCheckInvariantsSeesOrder: CheckInvariants reports an order that
// disagrees with the table — a container missing from it, one left in
// it after its close, or two out of creation order.
func TestCheckInvariantsSeesOrder(t *testing.T) {
	setup := func() *State {
		s := MustNew(Config{Capacity: mib(100), ContextOverhead: 1})
		for _, id := range []ContainerID{"x", "y", "z"} {
			if _, err := s.Register(id, mib(10)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	for name, corrupt := range map[string]func(s *State){
		"missing":   func(s *State) { s.order = s.order[:2] },
		"stale":     func(s *State) { s.order[1] = &containerState{id: "y", createdSeq: s.order[1].createdSeq} },
		"unordered": func(s *State) { s.order[0], s.order[1] = s.order[1], s.order[0] },
	} {
		s := setup()
		corrupt(s)
		if err := s.CheckInvariants(); err == nil {
			t.Errorf("%s: CheckInvariants = nil, want an order error", name)
		}
	}
}

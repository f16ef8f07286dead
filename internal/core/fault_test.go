package core

import (
	"math/rand"
	"testing"

	"convgpu/internal/bytesize"
)

// stalledSetup reproduces the TestStalledDetection scenario: Recent-Use
// hands everything to C, which cannot resume, while B (holding real
// usage) starves — a genuine wedge without fault tolerance.
func stalledSetup(t *testing.T, faultTolerant bool) (*State, Ticket, Ticket) {
	t.Helper()
	s, err := New(Config{
		Capacity:        mib(1000),
		ContextOverhead: 1,
		Algorithm:       RecentUse{},
		FaultTolerant:   faultTolerant,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustRegister(t, s, "filler", mib(500))
	mustAlloc(t, s, "filler", 9, mib(450))
	mustRegister(t, s, "B", mib(900))
	mustAlloc(t, s, "B", 1, mib(400))
	resB, _ := s.RequestAlloc("B", 1, mib(480))
	mustRegister(t, s, "C", mib(900))
	resC, _ := s.RequestAlloc("C", 2, mib(600))
	if resB.Decision != Suspend || resC.Decision != Suspend {
		t.Fatalf("setup decisions: %v/%v", resB.Decision, resC.Decision)
	}
	return s, resB.Ticket, resC.Ticket
}

func TestFaultToleranceRescuesWedge(t *testing.T) {
	// Without fault tolerance the close wedges (proved by
	// TestStalledDetection); with it, the rescue pass admits B — the
	// feasible request — even though Recent-Use would never pick it.
	s, ticketB, _ := stalledSetup(t, true)
	_, u, err := s.Close("filler")
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Admitted) != 1 || u.Admitted[0].Container != "B" || u.Admitted[0].Ticket != ticketB {
		t.Fatalf("admitted = %+v, want B's ticket %d", u.Admitted, ticketB)
	}
	if s.Stalled() {
		t.Fatal("system stalled despite fault tolerance")
	}
	checkInv(t, s)
	// B eventually finishes; C then resumes normally.
	if _, u, err = s.Close("B"); err != nil {
		t.Fatal(err)
	}
	if len(u.Admitted) != 1 || u.Admitted[0].Container != "C" {
		t.Fatalf("after B's close, admitted = %+v, want C", u.Admitted)
	}
	checkInv(t, s)
}

func TestFaultToleranceOffStillWedges(t *testing.T) {
	s, _, _ := stalledSetup(t, false)
	if _, u, err := s.Close("filler"); err != nil {
		t.Fatal(err)
	} else if len(u.Admitted) != 0 {
		t.Fatalf("admitted = %+v, want none without fault tolerance", u.Admitted)
	}
	if !s.Stalled() {
		t.Fatal("expected the wedge without fault tolerance")
	}
}

func TestFaultToleranceIdleWhenPolicyWorks(t *testing.T) {
	// When the algorithm admits something, the rescue never runs: the
	// policy's choice stands.
	s, err := New(Config{Capacity: mib(1000), ContextOverhead: 1, Algorithm: FIFO{}, FaultTolerant: true})
	if err != nil {
		t.Fatal(err)
	}
	mustRegister(t, s, "a", mib(700))
	mustAlloc(t, s, "a", 1, mib(600))
	mustRegister(t, s, "older", mib(600))
	resOld, _ := s.RequestAlloc("older", 2, mib(500))
	mustRegister(t, s, "newer", mib(300))
	resNew, _ := s.RequestAlloc("newer", 3, mib(100))
	if resOld.Decision != Suspend || resNew.Decision != Suspend {
		t.Fatalf("setup: %v/%v", resOld.Decision, resNew.Decision)
	}
	_, u, err := s.Close("a")
	if err != nil {
		t.Fatal(err)
	}
	// FIFO admits the older first (policy order, not smallest-charge
	// rescue order).
	if len(u.Admitted) < 1 || u.Admitted[0].Container != "older" {
		t.Fatalf("admitted = %+v, want FIFO order (older first)", u.Admitted)
	}
	checkInv(t, s)
}

func TestFaultTolerancePersistentGrantsNeverWedge(t *testing.T) {
	// The brutal combination: persistent grants (which wedge RU/Random
	// on the Fig. 7 workload) plus fault tolerance. Random sequences of
	// single-allocation containers must always drain.
	for _, alg := range paperAlgorithms(3) {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			s, err := New(Config{
				Capacity:         mib(5120),
				ContextOverhead:  mib(66),
				Algorithm:        alg,
				PersistentGrants: true,
				FaultTolerant:    true,
			})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(99))
			type job struct {
				id     ContainerID
				pid    int
				size   bytesize.Size
				ticket Ticket
				state  string // running, waiting, done
			}
			var jobs []*job
			admit := func(u Update) {
				for _, a := range u.Admitted {
					for _, j := range jobs {
						if j.id == a.Container && j.ticket == a.Ticket && j.state == "waiting" {
							j.state = "running"
							if err := s.ConfirmAlloc(j.id, j.pid, uint64(j.pid)<<16, j.size); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
			// Launch 40 random single-allocation jobs.
			for i := 0; i < 40; i++ {
				size := mib((rng.Intn(40) + 1) * 100)
				j := &job{
					id:   ContainerID("j" + itoa(i)),
					pid:  1000 + i,
					size: size,
				}
				if _, err := s.Register(j.id, size+mib(66)); err != nil {
					t.Fatal(err)
				}
				res, err := s.RequestAlloc(j.id, j.pid, size)
				if err != nil {
					t.Fatal(err)
				}
				switch res.Decision {
				case Accept:
					j.state = "running"
					if err := s.ConfirmAlloc(j.id, j.pid, uint64(j.pid)<<16, size); err != nil {
						t.Fatal(err)
					}
				case Suspend:
					j.state = "waiting"
					j.ticket = res.Ticket
				default:
					t.Fatalf("job %d rejected its own limit-sized request", i)
				}
				jobs = append(jobs, j)
				checkInv(t, s)
			}
			// Finish running jobs in random order until everything drains.
			for guard := 0; guard < 10000; guard++ {
				var running []*job
				for _, j := range jobs {
					if j.state == "running" {
						running = append(running, j)
					}
				}
				if len(running) == 0 {
					break
				}
				j := running[rng.Intn(len(running))]
				if _, u, err := s.ProcessExit(j.id, j.pid); err != nil {
					t.Fatal(err)
				} else {
					admit(u)
				}
				if _, u, err := s.Close(j.id); err != nil {
					t.Fatal(err)
				} else {
					admit(u)
				}
				j.state = "done"
				checkInv(t, s)
			}
			for _, j := range jobs {
				if j.state != "done" {
					t.Fatalf("job %s wedged in state %s despite fault tolerance", j.id, j.state)
				}
			}
			if s.PoolFree() != mib(5120) {
				t.Fatalf("pool = %v after drain", s.PoolFree())
			}
		})
	}
}

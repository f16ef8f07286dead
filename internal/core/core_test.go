package core

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/clock"
	"convgpu/internal/errs"
)

// newState builds a scheduler with a 5 GiB GPU (the paper's K20m) and no
// context overhead unless stated, so arithmetic in tests stays simple.
func newState(t *testing.T, alg Algorithm) *State {
	t.Helper()
	s, err := New(Config{
		Capacity:        mib(5120),
		ContextOverhead: -0, // zero would mean "default"; set below
		Algorithm:       alg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newStateNoOverhead builds a scheduler whose context overhead is a
// negligible 1 byte (Config treats 0 as "use default").
func newStateNoOverhead(t *testing.T, capMiB int, alg Algorithm) *State {
	t.Helper()
	s, err := New(Config{Capacity: mib(capMiB), ContextOverhead: 1, Algorithm: alg})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustRegister(t *testing.T, s *State, id ContainerID, limit bytesize.Size) bytesize.Size {
	t.Helper()
	g, err := s.Register(id, limit)
	if err != nil {
		t.Fatalf("Register(%s): %v", id, err)
	}
	return g
}

func mustAlloc(t *testing.T, s *State, id ContainerID, pid int, size bytesize.Size) {
	t.Helper()
	res, err := s.RequestAlloc(id, pid, size)
	if err != nil {
		t.Fatalf("RequestAlloc(%s,%d,%v): %v", id, pid, size, err)
	}
	if res.Decision != Accept {
		t.Fatalf("RequestAlloc(%s,%d,%v) = %v, want accept", id, pid, size, res.Decision)
	}
}

func checkInv(t *testing.T, s *State) {
	t.Helper()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Capacity: 0}); err == nil {
		t.Error("New with zero capacity succeeded")
	}
	if _, err := New(Config{Capacity: -1}); err == nil {
		t.Error("New with negative capacity succeeded")
	}
	if _, err := New(Config{Capacity: 1, ContextOverhead: -1}); err == nil {
		t.Error("New with negative overhead succeeded")
	}
	s, err := New(Config{Capacity: mib(100)})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.ContextOverhead != DefaultContextOverhead {
		t.Errorf("default overhead = %v, want %v", s.cfg.ContextOverhead, DefaultContextOverhead)
	}
	if s.AlgorithmName() != "fifo" {
		t.Errorf("default algorithm = %q, want fifo", s.AlgorithmName())
	}
	if s.Capacity() != mib(100) {
		t.Errorf("Capacity = %v", s.Capacity())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad config did not panic")
		}
	}()
	MustNew(Config{})
}

func TestRegisterGrants(t *testing.T) {
	s := newStateNoOverhead(t, 1000, nil)
	if g := mustRegister(t, s, "a", mib(400)); g != mib(400) {
		t.Fatalf("first grant = %v, want full 400MiB", g)
	}
	if g := mustRegister(t, s, "b", mib(400)); g != mib(400) {
		t.Fatalf("second grant = %v, want full 400MiB", g)
	}
	// Pool has 200 left: partial grant (Fig. 3b).
	if g := mustRegister(t, s, "c", mib(400)); g != mib(200) {
		t.Fatalf("third grant = %v, want partial 200MiB", g)
	}
	// Pool empty: zero grant (Container D).
	if g := mustRegister(t, s, "d", mib(400)); g != 0 {
		t.Fatalf("fourth grant = %v, want 0", g)
	}
	checkInv(t, s)
}

func TestRegisterErrors(t *testing.T) {
	s := newStateNoOverhead(t, 1000, nil)
	if _, err := s.Register("a", 0); !errors.Is(err, ErrInvalidLimit) {
		t.Errorf("zero limit err = %v", err)
	}
	if _, err := s.Register("a", -5); !errors.Is(err, ErrInvalidLimit) {
		t.Errorf("negative limit err = %v", err)
	}
	if _, err := s.Register("a", mib(2000)); !errors.Is(err, errs.ErrOverCapacity) {
		t.Errorf("oversized limit err = %v", err)
	}
	mustRegister(t, s, "a", mib(100))
	if _, err := s.Register("a", mib(100)); !errors.Is(err, ErrDuplicateContainer) {
		t.Errorf("duplicate err = %v", err)
	}
}

func TestAcceptWithinGrant(t *testing.T) {
	s := newStateNoOverhead(t, 1000, nil)
	mustRegister(t, s, "a", mib(400))
	mustAlloc(t, s, "a", 1, mib(100))
	mustAlloc(t, s, "a", 1, mib(299)) // 100+299+2*1B overhead < 400
	info, _ := s.Info("a")
	if info.Used >= mib(400) || info.Used < mib(399) {
		t.Fatalf("used = %v", info.Used)
	}
	checkInv(t, s)
}

func TestRejectOverLimit(t *testing.T) {
	s := newStateNoOverhead(t, 1000, nil)
	mustRegister(t, s, "a", mib(400))
	res, err := s.RequestAlloc("a", 1, mib(401))
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != Reject {
		t.Fatalf("over-limit request = %v, want reject", res.Decision)
	}
	// Rejection charges nothing.
	info, _ := s.Info("a")
	if info.Used != 0 {
		t.Fatalf("used after reject = %v, want 0", info.Used)
	}
	checkInv(t, s)
}

func TestContextOverheadCharging(t *testing.T) {
	s, err := New(Config{Capacity: mib(1000), ContextOverhead: mib(66)})
	if err != nil {
		t.Fatal(err)
	}
	mustRegister(t, s, "a", mib(400))
	mustAlloc(t, s, "a", 1, mib(100)) // charges 100+66
	info, _ := s.Info("a")
	if info.Used != mib(166) {
		t.Fatalf("used = %v, want 166MiB (100 + 66 overhead)", info.Used)
	}
	mustAlloc(t, s, "a", 1, mib(100)) // same pid: no second overhead
	info, _ = s.Info("a")
	if info.Used != mib(266) {
		t.Fatalf("used = %v, want 266MiB", info.Used)
	}
	mustAlloc(t, s, "a", 2, mib(10)) // new pid: overhead again
	info, _ = s.Info("a")
	if info.Used != mib(342) {
		t.Fatalf("used = %v, want 342MiB", info.Used)
	}
	checkInv(t, s)
}

func TestRejectConsidersOverheadForNewPID(t *testing.T) {
	s, err := New(Config{Capacity: mib(1000), ContextOverhead: mib(66)})
	if err != nil {
		t.Fatal(err)
	}
	mustRegister(t, s, "a", mib(128))
	// 128 MiB request + 66 overhead > 128 limit: reject.
	res, err := s.RequestAlloc("a", 1, mib(128))
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != Reject {
		t.Fatalf("decision = %v, want reject", res.Decision)
	}
	// 62 MiB fits (62+66=128).
	mustAlloc(t, s, "a", 1, mib(62))
	checkInv(t, s)
}

func TestSuspendAndResumeOnClose(t *testing.T) {
	s := newStateNoOverhead(t, 1000, FIFO{})
	mustRegister(t, s, "a", mib(600))
	mustAlloc(t, s, "a", 1, mib(600)-1) // -1B leaves room for the overhead byte
	mustRegister(t, s, "b", mib(600))   // grant 400 partial
	res, err := s.RequestAlloc("b", 2, mib(500))
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != Suspend {
		t.Fatalf("decision = %v, want suspend", res.Decision)
	}
	info, _ := s.Info("b")
	if !info.Suspended || info.Pending != 1 {
		t.Fatalf("b info = %+v, want suspended with 1 pending", info)
	}
	// Closing a releases 600; FIFO grants b its deficit and admits the
	// pending request.
	released, u, err := s.Close("a")
	if err != nil {
		t.Fatal(err)
	}
	if released != mib(600) {
		t.Fatalf("released = %v, want 600MiB", released)
	}
	if len(u.Admitted) != 1 || u.Admitted[0].Ticket != res.Ticket || u.Admitted[0].Container != "b" {
		t.Fatalf("admitted = %+v, want ticket %d for b", u.Admitted, res.Ticket)
	}
	info, _ = s.Info("b")
	if info.Suspended || info.Used != mib(500)+1 { // +1B overhead
		t.Fatalf("b after resume = %+v", info)
	}
	checkInv(t, s)
}

func TestResumeOnOwnFree(t *testing.T) {
	// A container with a *partial* grant frees enough of its own memory
	// that a suspended request fits within the grant again.
	s := newStateNoOverhead(t, 1000, nil)
	mustRegister(t, s, "holder", mib(700))
	mustAlloc(t, s, "holder", 9, mib(600))
	mustRegister(t, s, "a", mib(600)) // grant 300, partial
	mustAlloc(t, s, "a", 1, mib(250))
	if err := s.ConfirmAlloc("a", 1, 0x1000, mib(250)); err != nil {
		t.Fatal(err)
	}
	// 250(+1B) used + 100 exceeds the 300 grant but not the 600 limit:
	// suspend.
	res, err := s.RequestAlloc("a", 1, mib(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != Suspend {
		t.Fatalf("decision = %v, want suspend", res.Decision)
	}
	// Freeing its own 250 MiB admits the parked 100 MiB within the
	// existing grant — no other container had to terminate.
	freed, u, err := s.Free("a", 1, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if freed != mib(250) {
		t.Fatalf("freed = %v", freed)
	}
	if len(u.Admitted) != 1 || u.Admitted[0].Ticket != res.Ticket {
		t.Fatalf("admitted = %+v", u.Admitted)
	}
	checkInv(t, s)
}

func TestConfirmAndFreeTracking(t *testing.T) {
	s := newStateNoOverhead(t, 1000, nil)
	mustRegister(t, s, "a", mib(400))
	mustAlloc(t, s, "a", 1, mib(100))
	if err := s.ConfirmAlloc("a", 1, 0xA0, mib(100)); err != nil {
		t.Fatal(err)
	}
	// Confirm without a matching accepted request.
	if err := s.ConfirmAlloc("a", 1, 0xB0, mib(100)); !errors.Is(err, ErrNotCharged) {
		t.Fatalf("stray confirm err = %v", err)
	}
	// Address reuse: a confirm for a tracked address implicitly frees
	// the stale record (the device cannot hold two live allocations at
	// one address; the old one's async free report is still in flight).
	mustAlloc(t, s, "a", 1, mib(50))
	usedBefore, _ := s.Info("a")
	if err := s.ConfirmAlloc("a", 1, 0xA0, mib(50)); err != nil {
		t.Fatalf("reused-address confirm err = %v", err)
	}
	usedAfter, _ := s.Info("a")
	if usedAfter.Used != usedBefore.Used-mib(100) {
		t.Fatalf("stale 100MiB record not released: %v -> %v", usedBefore.Used, usedAfter.Used)
	}
	// The late free report for the stale record fails harmlessly.
	if _, _, err := s.Free("a", 1, 0xA0); err != nil {
		// 0xA0 now tracks the NEW 50MiB allocation; freeing it works.
		t.Fatalf("free of reused addr: %v", err)
	}
	mustAlloc(t, s, "a", 1, mib(50))
	if err := s.ConfirmAlloc("a", 1, 0xC0, mib(50)); err != nil {
		t.Fatal(err)
	}
	// Free unknown addr / pid / container.
	if _, _, err := s.Free("a", 1, 0xDEAD); !errors.Is(err, ErrUnknownAddr) {
		t.Fatalf("free unknown addr err = %v", err)
	}
	if _, _, err := s.Free("a", 99, 0xA0); !errors.Is(err, ErrUnknownPID) {
		t.Fatalf("free unknown pid err = %v", err)
	}
	if _, _, err := s.Free("zzz", 1, 0xA0); !errors.Is(err, errs.ErrUnknownContainer) {
		t.Fatalf("free unknown container err = %v", err)
	}
	freed, _, err := s.Free("a", 1, 0xC0)
	if err != nil || freed != mib(50) {
		t.Fatalf("free = (%v,%v)", freed, err)
	}
	checkInv(t, s)
}

func TestConfirmSizeMismatch(t *testing.T) {
	s := newStateNoOverhead(t, 1000, nil)
	mustRegister(t, s, "a", mib(400))
	mustAlloc(t, s, "a", 1, mib(100))
	if err := s.ConfirmAlloc("a", 1, 0xA0, mib(99)); err == nil {
		t.Fatal("confirm with mismatched size succeeded")
	}
}

func TestAbortAllocReturnsCharge(t *testing.T) {
	s := newStateNoOverhead(t, 1000, nil)
	mustRegister(t, s, "a", mib(400))
	mustAlloc(t, s, "a", 1, mib(100))
	u, err := s.AbortAlloc("a", 1, mib(100))
	if err != nil {
		t.Fatal(err)
	}
	_ = u
	info, _ := s.Info("a")
	if info.Used != 1 { // only the 1-byte overhead remains charged
		t.Fatalf("used after abort = %v, want 1B", info.Used)
	}
	if _, err := s.AbortAlloc("a", 1, mib(100)); !errors.Is(err, ErrNotCharged) {
		t.Fatalf("double abort err = %v", err)
	}
	checkInv(t, s)
}

func TestProcessExitReleasesLeaks(t *testing.T) {
	s, err := New(Config{Capacity: mib(1000), ContextOverhead: mib(66)})
	if err != nil {
		t.Fatal(err)
	}
	mustRegister(t, s, "a", mib(500))
	mustAlloc(t, s, "a", 1, mib(100))
	if err := s.ConfirmAlloc("a", 1, 0xA0, mib(100)); err != nil {
		t.Fatal(err)
	}
	mustAlloc(t, s, "a", 1, mib(50)) // accepted but never confirmed
	released, _, err := s.ProcessExit("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := mib(100 + 50 + 66); released != want {
		t.Fatalf("released = %v, want %v", released, want)
	}
	info, _ := s.Info("a")
	if info.Used != 0 {
		t.Fatalf("used after exit = %v, want 0", info.Used)
	}
	// Exit of an unknown pid is a no-op.
	released, _, err = s.ProcessExit("a", 999)
	if err != nil || released != 0 {
		t.Fatalf("unknown pid exit = (%v,%v)", released, err)
	}
	checkInv(t, s)
}

func TestProcessExitCancelsPending(t *testing.T) {
	s := newStateNoOverhead(t, 1000, nil)
	mustRegister(t, s, "holder", mib(700))
	mustAlloc(t, s, "holder", 9, mib(600))
	mustRegister(t, s, "a", mib(500)) // grant 300 partial
	res, _ := s.RequestAlloc("a", 1, mib(400))
	if res.Decision != Suspend {
		t.Fatalf("setup: decision = %v", res.Decision)
	}
	_, u, err := s.ProcessExit("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Cancelled) != 1 || u.Cancelled[0].Ticket != res.Ticket {
		t.Fatalf("cancelled = %+v, want ticket %d", u.Cancelled, res.Ticket)
	}
	info, _ := s.Info("a")
	if info.Pending != 0 {
		t.Fatalf("pending = %d after exit", info.Pending)
	}
	checkInv(t, s)
}

func TestCloseCancelsPendingAndIsIdempotent(t *testing.T) {
	s := newStateNoOverhead(t, 1000, nil)
	mustRegister(t, s, "holder", mib(700))
	mustAlloc(t, s, "holder", 9, mib(600))
	mustRegister(t, s, "a", mib(500)) // grant 300 partial
	res, _ := s.RequestAlloc("a", 1, mib(400))
	if res.Decision != Suspend {
		t.Fatalf("setup: decision = %v", res.Decision)
	}
	_, u, err := s.Close("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Cancelled) != 1 || u.Cancelled[0].Ticket != res.Ticket {
		t.Fatalf("cancelled = %+v", u.Cancelled)
	}
	// Second close: idempotent no-op.
	released, _, err := s.Close("a")
	if err != nil || released != 0 {
		t.Fatalf("second close = (%v,%v)", released, err)
	}
	// Close of a never-registered container errors.
	if _, _, err := s.Close("ghost"); !errors.Is(err, errs.ErrUnknownContainer) {
		t.Fatalf("close ghost err = %v", err)
	}
	if _, _, err := s.Close("holder"); err != nil {
		t.Fatal(err)
	}
	if s.PoolFree() != mib(1000) {
		t.Fatalf("pool = %v after closes, want all capacity", s.PoolFree())
	}
	checkInv(t, s)
}

func TestMemInfoVirtualizedView(t *testing.T) {
	s := newStateNoOverhead(t, 5120, nil)
	mustRegister(t, s, "a", mib(1024))
	free, total, err := s.MemInfo("a")
	if err != nil {
		t.Fatal(err)
	}
	if total != mib(1024) || free != mib(1024) {
		t.Fatalf("MemInfo = (%v,%v), want the container's limit view", free, total)
	}
	mustAlloc(t, s, "a", 1, mib(100))
	free, total, _ = s.MemInfo("a")
	if total != mib(1024) || free != mib(924)-1 {
		t.Fatalf("MemInfo after alloc = (%v,%v)", free, total)
	}
	if _, _, err := s.MemInfo("ghost"); !errors.Is(err, errs.ErrUnknownContainer) {
		t.Fatalf("MemInfo ghost err = %v", err)
	}
}

// TestFig3Scenario replays the paper's Figure 3 walkthrough end to end.
func TestFig3Scenario(t *testing.T) {
	// Capacity 1000; A and B run with 400 each (Fig. 3a).
	s := newStateNoOverhead(t, 1000, FIFO{})
	mustRegister(t, s, "A", mib(400))
	mustAlloc(t, s, "A", 1, mib(400)-1)
	if err := s.ConfirmAlloc("A", 1, 0xA, mib(400)-1); err != nil {
		t.Fatal(err)
	}
	mustRegister(t, s, "B", mib(400))
	mustAlloc(t, s, "B", 2, mib(400)-1)
	if err := s.ConfirmAlloc("B", 2, 0xB, mib(400)-1); err != nil {
		t.Fatal(err)
	}

	// Fig. 3b: C requests 400 at creation, gets the remaining 200 and
	// runs fine while using less than that.
	if g := mustRegister(t, s, "C", mib(400)); g != mib(200) {
		t.Fatalf("C grant = %v, want partial 200MiB", g)
	}
	mustAlloc(t, s, "C", 3, mib(150))

	// Fig. 3c: C allocates beyond its assigned memory (still within its
	// request) and suspends; D arrives with no memory at all and its
	// first allocation suspends immediately.
	resC, _ := s.RequestAlloc("C", 3, mib(200))
	if resC.Decision != Suspend {
		t.Fatalf("C's over-grant alloc = %v, want suspend", resC.Decision)
	}
	if g := mustRegister(t, s, "D", mib(300)); g != 0 {
		t.Fatalf("D grant = %v, want 0", g)
	}
	resD, _ := s.RequestAlloc("D", 4, mib(250))
	if resD.Decision != Suspend {
		t.Fatalf("D's alloc = %v, want suspend", resD.Decision)
	}

	// Fig. 3d: B terminates; FIFO selects C (older) and guarantees its
	// full request; the remaining 200 go to D, which stays suspended.
	_, u, err := s.Close("B")
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Admitted) != 1 || u.Admitted[0].Container != "C" || u.Admitted[0].Ticket != resC.Ticket {
		t.Fatalf("admitted = %+v, want C's ticket", u.Admitted)
	}
	infoC, _ := s.Info("C")
	if infoC.Grant != mib(400) || infoC.Suspended {
		t.Fatalf("C = %+v, want full grant and running", infoC)
	}
	infoD, _ := s.Info("D")
	if infoD.Grant != mib(200) || !infoD.Suspended {
		t.Fatalf("D = %+v, want partial 200MiB grant and still suspended", infoD)
	}
	checkInv(t, s)
}

func TestSuspendedTimeAccounting(t *testing.T) {
	clk := clock.NewManual()
	s, err := New(Config{Capacity: mib(1000), ContextOverhead: 1, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	mustRegister(t, s, "holder", mib(700))
	mustAlloc(t, s, "holder", 9, mib(600))
	mustRegister(t, s, "a", mib(600)) // grant 300 partial
	mustAlloc(t, s, "a", 1, mib(250))
	if err := s.ConfirmAlloc("a", 1, 0x1, mib(250)); err != nil {
		t.Fatal(err)
	}
	// 299 MiB: suspends now (250+1B held), but fits within the 300 MiB
	// grant once the 250 MiB block is freed (overhead byte included).
	if res, err := s.RequestAlloc("a", 1, mib(299)); err != nil || res.Decision != Suspend {
		t.Fatalf("setup: res=%+v err=%v", res, err)
	}
	clk.Advance(7 * time.Second)
	info, _ := s.Info("a")
	if info.SuspendedTotal != 7*time.Second {
		t.Fatalf("open-interval SuspendedTotal = %v, want 7s", info.SuspendedTotal)
	}
	// Free ends the suspension at t=7s; later time must not accrue.
	if _, _, err := s.Free("a", 1, 0x1); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	info, _ = s.Info("a")
	if info.SuspendedTotal != 7*time.Second {
		t.Fatalf("closed SuspendedTotal = %v, want 7s", info.SuspendedTotal)
	}
	if !info.EverSuspended {
		t.Fatal("EverSuspended not set")
	}
}

func TestPoolTopUpAvoidsNeedlessSuspend(t *testing.T) {
	// A container whose grant is partial must still allocate without
	// suspension while unassigned pool memory can cover it.
	s := newStateNoOverhead(t, 1000, nil)
	mustRegister(t, s, "a", mib(800))
	mustAlloc(t, s, "a", 1, mib(100))
	if err := s.ConfirmAlloc("a", 1, 0x1, mib(100)); err != nil {
		t.Fatal(err)
	}
	// Close and re-register scenario: b registers when pool is 200.
	mustRegister(t, s, "b", mib(600)) // grant 200 partial
	infoB, _ := s.Info("b")
	if infoB.Grant != mib(200) {
		t.Fatalf("b grant = %v", infoB.Grant)
	}
	// a frees; pool stays 0 (grants are sticky) but when a closes, pool
	// returns. b then allocates 500: grant tops up from the pool without
	// suspension.
	if _, _, err := s.Free("a", 1, 0x1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Close("a"); err != nil {
		t.Fatal(err)
	}
	res, err := s.RequestAlloc("b", 2, mib(500))
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != Accept {
		t.Fatalf("decision = %v, want accept via pool top-up", res.Decision)
	}
	checkInv(t, s)
}

func TestBestFitRedistribution(t *testing.T) {
	// Pool 300 must go to the container whose deficit fits best, not the
	// oldest.
	s := newStateNoOverhead(t, 1000, BestFit{})
	mustRegister(t, s, "big", mib(700))
	mustAlloc(t, s, "big", 1, mib(700)-1)
	if err := s.ConfirmAlloc("big", 1, 0x1, mib(700)-1); err != nil {
		t.Fatal(err)
	}
	mustRegister(t, s, "older", mib(600)) // deficit 300 after pool drained
	mustRegister(t, s, "newer", mib(300)) // deficit 300... build carefully:
	// pool was 300 at older's registration: older got grant 300
	// (deficit 300); newer got 0 (deficit 300). Make deficits differ.
	resOld, _ := s.RequestAlloc("older", 2, mib(500))
	resNew, _ := s.RequestAlloc("newer", 3, mib(250))
	if resOld.Decision != Suspend || resNew.Decision != Suspend {
		t.Fatalf("setup: decisions %v/%v", resOld.Decision, resNew.Decision)
	}
	// big closes: pool 700. older's deficit 300, newer's 300. Both fit;
	// BestFit takes the larger fitting deficit (tie -> older), grants it,
	// then the rest goes to newer. Both resume.
	_, u, err := s.Close("big")
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Admitted) != 2 {
		t.Fatalf("admitted = %+v, want both", u.Admitted)
	}
	checkInv(t, s)
}

func TestBestFitPrefersExactFit(t *testing.T) {
	s := newStateNoOverhead(t, 1000, BestFit{})
	mustRegister(t, s, "holder", mib(900))
	mustAlloc(t, s, "holder", 1, mib(900)-1)
	if err := s.ConfirmAlloc("holder", 1, 0x1, mib(900)-1); err != nil {
		t.Fatal(err)
	}
	mustRegister(t, s, "wantsBig", mib(800))   // grant 100, deficit 700
	mustRegister(t, s, "wantsSmall", mib(600)) // grant 0... pool is 0: grant 0, deficit 600
	r1, _ := s.RequestAlloc("wantsBig", 2, mib(700))
	r2, _ := s.RequestAlloc("wantsSmall", 3, mib(500))
	if r1.Decision != Suspend || r2.Decision != Suspend {
		t.Fatalf("setup decisions: %v/%v", r1.Decision, r2.Decision)
	}
	// holder frees 899 via close: pool 900. wantsBig deficit 700 fits and
	// is the largest fitting: it resumes first; remaining 200 goes to
	// wantsSmall (partial), which stays suspended.
	_, u, err := s.Close("holder")
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Admitted) != 1 || u.Admitted[0].Container != "wantsBig" {
		t.Fatalf("admitted = %+v, want wantsBig only", u.Admitted)
	}
	info, _ := s.Info("wantsSmall")
	if info.Grant != mib(200) || !info.Suspended {
		t.Fatalf("wantsSmall = %+v, want partial 200 grant, suspended", info)
	}
	checkInv(t, s)
}

// TestStalledDetection constructs the residual hold-and-wait the paper's
// prior fault-tolerance study [10] warns about: it needs a *multi-
// allocation* program (B holds earlier allocations while waiting) plus a
// policy (Recent-Use) that hands all freed memory to a container that
// still cannot resume. Single-allocation workloads — the paper's whole
// evaluation — can never reach this state (see Stalled's doc comment).
func TestStalledDetection(t *testing.T) {
	s := newStateNoOverhead(t, 1000, RecentUse{})
	mustRegister(t, s, "filler", mib(500))
	mustAlloc(t, s, "filler", 9, mib(450))
	if s.Stalled() {
		t.Fatal("running container reported stalled")
	}
	mustRegister(t, s, "B", mib(900)) // grant 500 (pool had 500)
	mustAlloc(t, s, "B", 1, mib(400)) // B holds real usage
	resB, _ := s.RequestAlloc("B", 1, mib(480))
	mustRegister(t, s, "C", mib(900))           // grant 0
	resC, _ := s.RequestAlloc("C", 2, mib(600)) // suspended after B
	if resB.Decision != Suspend || resC.Decision != Suspend {
		t.Fatalf("setup decisions: %v/%v", resB.Decision, resC.Decision)
	}
	if s.Stalled() {
		t.Fatal("stalled while filler still runs")
	}
	// filler closes: pool 500 plus B's reclaimed unused ~100. Recent-Use
	// picks C (most recent); its 600 MiB+1B request does not fit the
	// ~600 MiB-1B grant, so C stays paused holding the whole pool, and B
	// (holding 400 MiB of real usage) is never picked: every container
	// is blocked.
	_, u, err := s.Close("filler")
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Admitted) != 0 {
		t.Fatalf("admitted = %+v, want none", u.Admitted)
	}
	if !s.Stalled() {
		t.Fatal("mutually blocked containers not reported stalled")
	}
	infoC, _ := s.Info("C")
	if infoC.Grant < mib(599) || infoC.Grant > mib(600) {
		t.Fatalf("C grant = %v, want ~600MiB (the whole reclaimed pool)", infoC.Grant)
	}
	checkInv(t, s)
}

func TestSnapshotOrdering(t *testing.T) {
	s := newStateNoOverhead(t, 1000, nil)
	for _, id := range []ContainerID{"z", "m", "a"} {
		mustRegister(t, s, id, mib(10))
	}
	snap := s.Snapshot()
	if len(snap) != 3 || snap[0].ID != "z" || snap[1].ID != "m" || snap[2].ID != "a" {
		t.Fatalf("snapshot order = %+v, want creation order z,m,a", snap)
	}
	if _, err := s.Info("nope"); !errors.Is(err, errs.ErrUnknownContainer) {
		t.Fatalf("Info(nope) err = %v", err)
	}
}

func TestDecisionString(t *testing.T) {
	if Accept.String() != "accept" || Suspend.String() != "suspend" || Reject.String() != "reject" {
		t.Error("Decision strings wrong")
	}
	if Decision(9).String() != "Decision(9)" {
		t.Errorf("unknown decision string = %q", Decision(9).String())
	}
}

// TestRandomOperationsInvariant drives the scheduler with a random
// operation mix under every algorithm and asserts the core invariants
// after every single step, plus full-drain recovery at the end.
func TestRandomOperationsInvariant(t *testing.T) {
	for _, alg := range paperAlgorithms(7) {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			s, err := New(Config{Capacity: mib(2048), ContextOverhead: mib(66), Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(20170712))
			type liveAlloc struct {
				id   ContainerID
				pid  int
				addr uint64
			}
			type parked struct {
				id   ContainerID
				pid  int
				size bytesize.Size
			}
			var (
				nextID    int
				nextAddr  uint64 = 0x1000
				live      []ContainerID
				allocs    []liveAlloc
				suspended = map[Ticket]parked{}
			)
			// admit plays the wrapper's role for resumed requests: the
			// real allocation happens and is confirmed.
			admit := func(u Update) {
				for _, a := range u.Admitted {
					p, ok := suspended[a.Ticket]
					if !ok {
						t.Fatalf("admitted unknown ticket %d", a.Ticket)
					}
					delete(suspended, a.Ticket)
					nextAddr += 0x10
					if err := s.ConfirmAlloc(p.id, p.pid, nextAddr, p.size); err != nil {
						t.Fatal(err)
					}
					allocs = append(allocs, liveAlloc{p.id, p.pid, nextAddr})
				}
				for _, c := range u.Cancelled {
					if _, ok := suspended[c.Ticket]; !ok {
						t.Fatalf("cancelled unknown ticket %d", c.Ticket)
					}
					delete(suspended, c.Ticket)
				}
			}
			for op := 0; op < 3000; op++ {
				switch rng.Intn(10) {
				case 0, 1: // register
					nextID++
					id := ContainerID(string(rune('A'+nextID%26)) + "-" + itoa(nextID))
					limit := mib(rng.Intn(1900) + 100)
					if _, err := s.Register(id, limit); err != nil {
						t.Fatal(err)
					}
					live = append(live, id)
				case 2, 3, 4, 5: // alloc
					if len(live) == 0 {
						continue
					}
					id := live[rng.Intn(len(live))]
					pid := rng.Intn(3) + 1 // few pids per container
					size := mib(rng.Intn(600) + 1)
					res, err := s.RequestAlloc(id, pid, size)
					if err != nil {
						t.Fatal(err)
					}
					switch res.Decision {
					case Accept:
						nextAddr += 0x10
						if err := s.ConfirmAlloc(id, pid, nextAddr, size); err != nil {
							t.Fatal(err)
						}
						allocs = append(allocs, liveAlloc{id, pid, nextAddr})
					case Suspend:
						suspended[res.Ticket] = parked{id, pid, size}
					}
				case 6, 7: // free
					if len(allocs) == 0 {
						continue
					}
					i := rng.Intn(len(allocs))
					a := allocs[i]
					_, u, err := s.Free(a.id, a.pid, a.addr)
					if err != nil {
						t.Fatal(err)
					}
					admit(u)
					allocs = append(allocs[:i], allocs[i+1:]...)
				case 8: // process exit
					if len(allocs) == 0 {
						continue
					}
					a := allocs[rng.Intn(len(allocs))]
					_, u, err := s.ProcessExit(a.id, a.pid)
					if err != nil {
						t.Fatal(err)
					}
					admit(u)
					out := allocs[:0]
					for _, x := range allocs {
						if !(x.id == a.id && x.pid == a.pid) {
							out = append(out, x)
						}
					}
					allocs = out
				case 9: // close
					if len(live) == 0 {
						continue
					}
					i := rng.Intn(len(live))
					id := live[i]
					_, u, err := s.Close(id)
					if err != nil {
						t.Fatal(err)
					}
					admit(u)
					live = append(live[:i], live[i+1:]...)
					out := allocs[:0]
					for _, x := range allocs {
						if x.id != id {
							out = append(out, x)
						}
					}
					allocs = out
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
			}
			// Drain: close everything; the pool must equal capacity and
			// every outstanding ticket must be cancelled or admitted.
			for _, id := range live {
				_, u, err := s.Close(id)
				if err != nil {
					t.Fatal(err)
				}
				admit(u)
			}
			if s.PoolFree() != mib(2048) {
				t.Fatalf("pool after drain = %v, want full capacity", s.PoolFree())
			}
			if len(suspended) != 0 {
				t.Fatalf("%d tickets leaked after drain", len(suspended))
			}
			checkInv(t, s)
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

package core

import (
	"errors"
	"testing"

	"convgpu/internal/bytesize"
)

func sMiB(n int) bytesize.Size { return bytesize.Size(n) * bytesize.MiB }

func newSessionState(t *testing.T, capacity bytesize.Size) *State {
	t.Helper()
	return MustNew(Config{Capacity: capacity, ContextOverhead: 1})
}

func TestEnsureRegisteredIdempotent(t *testing.T) {
	st := newSessionState(t, sMiB(1000))
	g1, err := st.EnsureRegistered("c", sMiB(400))
	if err != nil {
		t.Fatal(err)
	}
	if g1 != sMiB(400) {
		t.Fatalf("first grant = %v", g1)
	}
	// Re-register with the same limit: the grant must be reported, not
	// granted again (no double-counting against the pool).
	g2, err := st.EnsureRegistered("c", sMiB(400))
	if err != nil {
		t.Fatal(err)
	}
	if g2 != g1 {
		t.Fatalf("re-register grant = %v, want %v", g2, g1)
	}
	if free := st.PoolFree(); free != sMiB(600) {
		t.Fatalf("pool = %v after idempotent re-register, want 600MiB", free)
	}
	if _, err := st.EnsureRegistered("c", sMiB(500)); !errors.Is(err, ErrLimitMismatch) {
		t.Fatalf("limit change err = %v", err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRebuildsAccounting(t *testing.T) {
	// A fresh state standing in for a restarted scheduler: the wrapper
	// replays its live allocation and the accounting comes back.
	st := newSessionState(t, sMiB(1000))
	if _, err := st.Register("c", sMiB(400)); err != nil {
		t.Fatal(err)
	}
	if err := st.Restore("c", 1, 0xA0, sMiB(100)); err != nil {
		t.Fatal(err)
	}
	info, err := st.Info("c")
	if err != nil {
		t.Fatal(err)
	}
	if info.Used != sMiB(100)+1 { // alloc + first-restore context overhead
		t.Fatalf("used after restore = %v", info.Used)
	}
	// Replaying the same restore is a no-op, not a second charge.
	if err := st.Restore("c", 1, 0xA0, sMiB(100)); err != nil {
		t.Fatal(err)
	}
	info, _ = st.Info("c")
	if info.Used != sMiB(100)+1 {
		t.Fatalf("used after replayed restore = %v", info.Used)
	}
	// A conflicting size for a tracked address is a divergence, not a
	// silent overwrite.
	if err := st.Restore("c", 1, 0xA0, sMiB(50)); err == nil {
		t.Fatal("conflicting restore succeeded")
	}
	// The restored allocation behaves like a confirmed one: free works.
	if _, _, err := st.Free("c", 1, 0xA0); err != nil {
		t.Fatal(err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreAdoptsAcceptedCharge: the connection died between an
// accepted alloc and its confirm, the scheduler did not. The replay's
// restore is that confirm, late: the charge the alloc made moves to the
// address, and is not made a second time.
func TestRestoreAdoptsAcceptedCharge(t *testing.T) {
	st := MustNew(Config{Capacity: bytesize.GiB})
	if _, err := st.Register("c", bytesize.GiB); err != nil {
		t.Fatal(err)
	}
	if res, err := st.RequestAlloc("c", 1, sMiB(100)); err != nil || res.Decision != Accept {
		t.Fatalf("alloc = %+v %v", res, err)
	}
	want := sMiB(100) + DefaultContextOverhead
	if info, _ := st.Info("c"); info.Used != want {
		t.Fatalf("used after the accept = %v, want %v", info.Used, want)
	}
	if err := st.Restore("c", 1, 0xA0, sMiB(100)); err != nil {
		t.Fatal(err)
	}
	if info, _ := st.Info("c"); info.Used != want {
		t.Fatalf("used after the restore = %v, want %v: the accepted charge was made again", info.Used, want)
	}
	// The charge is the address's now: a confirm that did get through
	// after all finds nothing accepted, a replayed restore changes
	// nothing, and a free gives the size back.
	if err := st.ConfirmAlloc("c", 1, 0xA0, sMiB(100)); !errors.Is(err, ErrNotCharged) {
		t.Fatalf("confirm after the restore adopted its charge = %v, want ErrNotCharged", err)
	}
	if err := st.Restore("c", 1, 0xA0, sMiB(100)); err != nil {
		t.Fatal(err)
	}
	if size, _, err := st.Free("c", 1, 0xA0); err != nil || size != sMiB(100) {
		t.Fatalf("free = %v %v", size, err)
	}
	// An accepted charge of another size, or another process's, is not
	// this allocation's: the restore charges anew beside it.
	if res, err := st.RequestAlloc("c", 1, sMiB(50)); err != nil || res.Decision != Accept {
		t.Fatalf("alloc = %+v %v", res, err)
	}
	if err := st.Restore("c", 1, 0xB0, sMiB(20)); err != nil {
		t.Fatal(err)
	}
	if err := st.Restore("c", 2, 0xC0, sMiB(50)); err != nil {
		t.Fatal(err)
	}
	want = sMiB(50) + sMiB(20) + sMiB(50) + 2*DefaultContextOverhead
	if info, _ := st.Info("c"); info.Used != want {
		t.Fatalf("used = %v, want %v", info.Used, want)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreFailsClosed(t *testing.T) {
	st := newSessionState(t, sMiB(1000))
	if _, err := st.Register("c", sMiB(400)); err != nil {
		t.Fatal(err)
	}
	// Over the container's limit: the scheduler refuses to fabricate
	// capacity, and nothing is charged.
	if err := st.Restore("c", 1, 0xA0, sMiB(500)); !errors.Is(err, ErrRestoreInfeasible) {
		t.Fatalf("over-limit restore err = %v", err)
	}
	if info, _ := st.Info("c"); info.Used != 0 {
		t.Fatalf("used after failed restore = %v", info.Used)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRestorePullsFromPool(t *testing.T) {
	// A restarted scheduler may have re-granted the container less than
	// its usage (pool contention). Restore tops the grant up from the
	// pool, keeping Σ grants ≤ capacity.
	st := newSessionState(t, sMiB(1000))
	if _, err := st.Register("a", sMiB(700)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Register("b", sMiB(600)); err != nil {
		t.Fatal(err) // b gets a partial 300MiB grant, pool is empty
	}
	// 350MiB exceeds b's 300MiB grant and the pool has nothing to top it
	// up with: the restore fails closed rather than fabricate capacity.
	if err := st.Restore("b", 1, 0xB0, sMiB(350)); !errors.Is(err, ErrRestoreInfeasible) {
		t.Fatalf("restore with empty pool err = %v", err)
	}
	if info, _ := st.Info("b"); info.Used != 0 {
		t.Fatalf("b used after failed restore = %v", info.Used)
	}
	// a leaves, returning its 700MiB grant to the pool; the same restore
	// now succeeds by pulling the grant top-up from the pool.
	if _, _, err := st.Close("a"); err != nil {
		t.Fatal(err)
	}
	if err := st.Restore("b", 1, 0xB0, sMiB(350)); err != nil {
		t.Fatal(err)
	}
	info, _ := st.Info("b")
	if info.Used != sMiB(350)+1 { // alloc + context overhead
		t.Fatalf("b used = %v", info.Used)
	}
	if info.Grant < info.Used {
		t.Fatalf("b grant %v < used %v after pool top-up", info.Grant, info.Used)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDropPendingReleasesTicket(t *testing.T) {
	st := newSessionState(t, sMiB(1000))
	if _, err := st.Register("a", sMiB(700)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Register("b", sMiB(600)); err != nil {
		t.Fatal(err) // partial 300MiB grant
	}
	if res, err := st.RequestAlloc("a", 1, sMiB(600)); err != nil || res.Decision != Accept {
		t.Fatalf("a alloc: %+v %v", res, err)
	}
	res, err := st.RequestAlloc("b", 2, sMiB(500))
	if err != nil || res.Decision != Suspend {
		t.Fatalf("b alloc: %+v %v", res, err)
	}
	// The connection the 500MiB response was parked on drops.
	if _, err := st.DropPending("b", []Ticket{res.Ticket}); err != nil {
		t.Fatal(err)
	}
	if info, _ := st.Info("b"); info.Pending != 0 || info.Suspended {
		t.Fatalf("b after drop = %+v", info)
	}
	// The dropped ticket must never resurface: a's exit frees 700MiB,
	// and the resulting redistribution has nothing of b's to admit.
	_, u, err := st.Close("a")
	if err != nil {
		t.Fatal(err)
	}
	for _, adm := range u.Admitted {
		if adm.Ticket == res.Ticket {
			t.Fatalf("dropped ticket %d re-admitted: %+v", res.Ticket, u)
		}
	}
	// b itself is fine: a fresh request (the wrapper retrying after its
	// reconnect) now succeeds against the freed capacity.
	if res, err := st.RequestAlloc("b", 2, sMiB(500)); err != nil || res.Decision != Accept {
		t.Fatalf("b retry: %+v %v", res, err)
	}
	// Idempotent: dropping again (or unknown tickets / containers) no-ops.
	if u, err := st.DropPending("b", []Ticket{res.Ticket}); err != nil || len(u.Admitted) != 0 {
		t.Fatalf("second drop: %+v %v", u, err)
	}
	if _, err := st.DropPending("ghost", []Ticket{1}); err != nil {
		t.Fatalf("drop on unknown container: %v", err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

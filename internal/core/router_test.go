package core

import (
	"errors"
	"testing"

	"convgpu/internal/bytesize"
	"convgpu/internal/errs"
)

// newTestRouter builds a 2-member router over small single-device
// states, with placements recorded the way an embedding type would
// after Register.
func newTestRouter(t *testing.T) (*Router, []*State) {
	t.Helper()
	var members []Scheduler
	var states []*State
	for i := 0; i < 2; i++ {
		s, err := New(Config{Capacity: mib(500), ContextOverhead: 1, Algorithm: FIFO{}, DeviceIndex: i})
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, s)
		states = append(states, s)
	}
	return NewRouter(members, "node"), states
}

// TestRouterRoutesAndAggregates pins the routing plane inside its own
// package: per-container ops land on the owning member, unknown
// containers are refused, and the whole-scheduler views aggregate
// across members.
func TestRouterRoutesAndAggregates(t *testing.T) {
	r, states := newTestRouter(t)

	var seen []EventRecord
	r.SetObserver(func(e EventRecord) { seen = append(seen, e) })

	reg := func(id ContainerID, member int, limit bytesize.Size) {
		t.Helper()
		if _, err := states[member].Register(id, limit); err != nil {
			t.Fatal(err)
		}
		r.SetPlacement(id, member)
	}
	reg("a", 0, mib(400))
	// c shrinks member 1's pool so b registers with a partial grant —
	// the precondition for a suspend below.
	reg("c", 1, mib(300))
	reg("b", 1, mib(500)) // grant clamped to the remaining 200 MiB

	if n := r.NumMembers(); n != 2 {
		t.Fatalf("NumMembers = %d", n)
	}
	if r.Member(1) != states[1] {
		t.Fatal("Member(1) is not the second state")
	}
	if m, err := r.PlacementIndex("b"); err != nil || m != 1 {
		t.Fatalf("PlacementIndex(b) = %d, %v", m, err)
	}
	if _, err := r.PlacementIndex("ghost"); !errors.Is(err, errs.ErrUnknownContainer) {
		t.Fatalf("PlacementIndex(ghost) = %v", err)
	}

	// Routed ops follow the placement.
	res, err := r.RequestAlloc("a", 1, mib(100))
	if err != nil || res.Decision != Accept {
		t.Fatalf("alloc a: %+v %v", res, err)
	}
	if err := r.ConfirmAlloc("a", 1, 0x1, mib(100)); err != nil {
		t.Fatal(err)
	}
	if free, total, err := r.MemInfo("a"); err != nil || total != mib(400) || free >= total {
		t.Fatalf("MemInfo(a) = %v/%v, %v", free, total, err)
	}
	if _, err := r.RequestAlloc("ghost", 1, mib(1)); !errors.Is(err, errs.ErrUnknownContainer) {
		t.Fatalf("alloc ghost: %v", err)
	}

	// b's second request is within its limit but over its grant with an
	// empty pool: it parks, and PendingRequests routes to the member
	// that holds the queue.
	if res, err := r.RequestAlloc("b", 2, mib(150)); err != nil || res.Decision != Accept {
		t.Fatalf("alloc b: %+v %v", res, err)
	}
	if err := r.ConfirmAlloc("b", 2, 0x2, mib(150)); err != nil {
		t.Fatal(err)
	}
	sus, err := r.RequestAlloc("b", 2, mib(300))
	if err != nil || sus.Decision != Suspend {
		t.Fatalf("second alloc b: %+v %v", sus, err)
	}
	pend, err := r.PendingRequests("b")
	if err != nil || len(pend) != 1 || pend[0].Ticket != sus.Ticket || pend[0].Size != mib(300) {
		t.Fatalf("PendingRequests(b) = %+v, %v", pend, err)
	}
	if got := r.PausedContainers(); got != 1 {
		t.Fatalf("PausedContainers = %d", got)
	}

	// Aggregated views span both members.
	if got := r.Capacity(); got != mib(1000) {
		t.Fatalf("Capacity = %v", got)
	}
	if got := r.PoolFree(); got != mib(100) { // 1000 - 400 - 300 - 200 granted
		t.Fatalf("PoolFree = %v", got)
	}
	if got := r.TotalUsed(); got == 0 {
		t.Fatalf("TotalUsed = %v", got)
	}
	if snap := r.Snapshot(); len(snap) != 3 {
		t.Fatalf("Snapshot = %+v", snap)
	}
	if devs := r.Devices(); len(devs) != 2 {
		t.Fatalf("Devices = %+v", devs)
	}
	if name := r.AlgorithmName(); name != AlgFIFO {
		t.Fatalf("AlgorithmName = %q", name)
	}
	// Every member's records reach the router's one observer, stamped
	// with the device that emitted them.
	byDevice := map[int]int{}
	for _, e := range seen {
		byDevice[e.Device]++
	}
	if len(byDevice) != 2 {
		t.Fatalf("observed records per device = %v, want both members'", byDevice)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Drop the parked request so teardown is clean, then close through
	// the router.
	if _, err := r.DropPending("b", []Ticket{sus.Ticket}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Free("a", 1, 0x1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.ProcessExit("b", 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Close("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Info("a"); err == nil {
		t.Fatal("a still known after close")
	}
}

// TestRouterReplaceMember pins the failover plumbing: the fresh member
// takes the dead slot before re-placement, dropped placements are
// forgotten, and the router's observer follows onto the replacement.
func TestRouterReplaceMember(t *testing.T) {
	r, states := newTestRouter(t)
	var events int
	r.SetObserver(func(EventRecord) { events++ })

	if _, err := states[0].Register("a", mib(100)); err != nil {
		t.Fatal(err)
	}
	r.SetPlacement("a", 0)
	if got := r.PlacementsOn(0); len(got) != 1 || got[0] != "a" {
		t.Fatalf("PlacementsOn(0) = %v", got)
	}

	fresh, err := New(Config{Capacity: mib(500), ContextOverhead: 1, Algorithm: FIFO{}})
	if err != nil {
		t.Fatal(err)
	}
	r.ReplaceMember(0, fresh, []ContainerID{"a"})

	if r.Member(0) != fresh {
		t.Fatal("slot 0 still holds the dead member")
	}
	if _, err := r.PlacementIndex("a"); !errors.Is(err, errs.ErrUnknownContainer) {
		t.Fatalf("dropped placement survived: %v", err)
	}
	if got := r.PlacementsOn(0); len(got) != 0 {
		t.Fatalf("PlacementsOn(0) after replace = %v", got)
	}

	// The replacement inherits the observer: activity on it is seen.
	if _, err := fresh.Register("b", mib(50)); err != nil {
		t.Fatal(err)
	}
	r.SetPlacement("b", 0)
	if events == 0 {
		t.Fatal("observer did not follow onto the replacement member")
	}

	// RestorePlacement with no recorded placement claims the first
	// member that accepts the device.
	if err := r.RestorePlacement("b", 0); err != nil {
		t.Fatal(err)
	}
	if err := r.RestorePlacement("ghost", 99); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("RestorePlacement(ghost, 99) = %v", err)
	}
}

// TestNodeVocabularyStrings pins the membership vocabulary's renderings
// (they feed logs, gauges, and the nodes verb's JSON).
func TestNodeVocabularyStrings(t *testing.T) {
	states := map[NodeState]string{
		NodeUp: "up", NodeSuspect: "suspect", NodeDown: "down",
		NodeDraining: "draining", NodeState(99): "unknown",
	}
	for s, want := range states {
		if got := s.String(); got != want {
			t.Fatalf("NodeState(%d) = %q, want %q", int(s), got, want)
		}
	}
	outcomes := map[TicketOutcome]string{
		TicketMigrated: "migrated", TicketAdmitted: "admitted",
		TicketEvicted: "evicted", TicketOutcome(99): "unknown",
	}
	for o, want := range outcomes {
		if got := o.String(); got != want {
			t.Fatalf("TicketOutcome(%d) = %q, want %q", int(o), got, want)
		}
	}
}

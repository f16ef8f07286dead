package cluster

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/clock"
	"convgpu/internal/core"
	"convgpu/internal/errs"
)

func newMembershipCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if cfg.Nodes == 0 {
		cfg.Nodes = 2
	}
	if cfg.GPUsPerNode == 0 {
		cfg.GPUsPerNode = 1
	}
	if cfg.CapacityPerGPU == 0 {
		cfg.CapacityPerGPU = mib(500)
	}
	if cfg.Device.ContextOverhead == 0 {
		cfg.Device.ContextOverhead = 1
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustNode(t *testing.T, c *Cluster, id core.ContainerID, want int) {
	t.Helper()
	node, _, err := c.NodePlacement(id)
	if err != nil {
		t.Fatalf("NodePlacement(%s): %v", id, err)
	}
	if node != want {
		t.Fatalf("%s placed on node %d, want %d", id, node, want)
	}
}

func TestDrainRefusesNewRegistrationsExistingComplete(t *testing.T) {
	c := newMembershipCluster(t, Config{})
	if _, err := c.Register("c0", mib(100)); err != nil {
		t.Fatal(err)
	}
	n0, _, err := c.NodePlacement("c0")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(n0); err != nil {
		t.Fatal(err)
	}
	if st, _ := c.State(n0); st != core.NodeDraining {
		t.Fatalf("state after drain = %v, want draining", st)
	}

	// New registrations avoid the draining node.
	if _, err := c.Register("c1", mib(100)); err != nil {
		t.Fatal(err)
	}
	mustNode(t, c, "c1", 1-n0)

	// The draining node's existing grant still completes: alloc, free,
	// and close all work.
	res, err := c.RequestAlloc("c0", 1, mib(50))
	if err != nil || res.Decision != core.Accept {
		t.Fatalf("alloc on draining node: %v (decision %v), want accept", err, res.Decision)
	}
	if err := c.ConfirmAlloc("c0", 1, 0x1000, mib(50)); err != nil {
		t.Fatalf("confirm on draining node: %v", err)
	}
	if _, _, err := c.Free("c0", 1, 0x1000); err != nil {
		t.Fatalf("free on draining node: %v", err)
	}
	if _, _, err := c.Close("c0"); err != nil {
		t.Fatalf("close on draining node: %v", err)
	}

	// With every node refusing work, admission fails closed.
	if err := c.Drain(1 - n0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("c2", mib(100)); !errors.Is(err, errs.ErrDaemonUnavailable) {
		t.Fatalf("register with all nodes draining = %v, want ErrDaemonUnavailable", err)
	}

	// Revive re-opens the node for placement.
	if err := c.Revive(n0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("c2", mib(100)); err != nil {
		t.Fatalf("register after revive: %v", err)
	}
	mustNode(t, c, "c2", n0)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDrainAndFailOnDownNode(t *testing.T) {
	c := newMembershipCluster(t, Config{})
	if _, err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	if st, _ := c.State(0); st != core.NodeDown {
		t.Fatalf("state after FailNode = %v, want down", st)
	}
	if err := c.Drain(0); !errors.Is(err, errs.ErrNodeDown) {
		t.Fatalf("drain of down node = %v, want ErrNodeDown", err)
	}
	if _, err := c.FailNode(0); !errors.Is(err, errs.ErrNodeDown) {
		t.Fatalf("second FailNode = %v, want ErrNodeDown", err)
	}
	if err := c.Revive(0); err != nil {
		t.Fatal(err)
	}
	if st, _ := c.State(0); st != core.NodeUp {
		t.Fatalf("state after revive = %v, want up", st)
	}
	if err := c.Drain(0); err != nil {
		t.Fatalf("drain of revived node: %v", err)
	}
}

func TestMembershipRejectsUnknownNodes(t *testing.T) {
	c := newMembershipCluster(t, Config{})
	if _, err := c.State(5); err == nil {
		t.Error("State(5) accepted")
	}
	if err := c.Drain(-1); err == nil {
		t.Error("Drain(-1) accepted")
	}
	if err := c.Revive(2); err == nil {
		t.Error("Revive(2) accepted")
	}
	if _, err := c.FailNode(9); err == nil {
		t.Error("FailNode(9) accepted")
	}
}

// TestFailNodeMigratesContainersAndTickets pins the failover path end to
// end on a deterministic layout: two 450 MiB containers share node 0
// (the second with a partial grant and a parked request), and killing
// the node must migrate both — with the parked ticket re-queued on the
// survivor under a fresh ticket — while the report accounts for every
// pre-kill ticket exactly once.
func TestFailNodeMigratesContainersAndTickets(t *testing.T) {
	c := newMembershipCluster(t, Config{})
	// Spread: c0 → node 0 (tie, first), c1 → node 1 (fewer containers),
	// c2 → node 0 (1-1 tie, equal free, first).
	for _, id := range []core.ContainerID{"c0", "c1", "c2"} {
		if _, err := c.Register(id, mib(450)); err != nil {
			t.Fatal(err)
		}
	}
	mustNode(t, c, "c0", 0)
	mustNode(t, c, "c1", 1)
	mustNode(t, c, "c2", 0)

	// c2's grant is the 50 MiB node 0 had left, so this request parks.
	res, err := c.RequestAlloc("c2", 1, mib(200))
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != core.Suspend {
		t.Fatalf("overcommitted alloc decision = %v, want suspend", res.Decision)
	}
	oldTicket := res.Ticket

	var hooked core.FailoverReport
	hookCalled := false
	c.OnFailover(func(rep core.FailoverReport) { hooked, hookCalled = rep, true })

	rep, err := c.FailNode(0)
	if err != nil {
		t.Fatal(err)
	}
	if !hookCalled {
		t.Fatal("OnFailover hook not called")
	}
	if hooked.Node != rep.Node || len(hooked.Moves) != len(rep.Moves) {
		t.Fatalf("hook saw a different report: %+v vs %+v", hooked, rep)
	}
	if rep.Node != 0 || len(rep.Moves) != 2 {
		t.Fatalf("report = %+v, want node 0 with 2 moves", rep)
	}
	// Moves come in container-ID order.
	if rep.Moves[0].ID != "c0" || rep.Moves[1].ID != "c2" {
		t.Fatalf("move order = %s, %s; want c0, c2", rep.Moves[0].ID, rep.Moves[1].ID)
	}
	for _, mv := range rep.Moves {
		if mv.Evicted || mv.From != 0 || mv.To != 1 {
			t.Fatalf("move %s = %+v, want migration 0 → 1", mv.ID, mv)
		}
	}
	if n := len(rep.Moves[0].Tickets); n != 0 {
		t.Fatalf("c0 had no parked tickets, report has %d", n)
	}
	tks := rep.Moves[1].Tickets
	if len(tks) != 1 {
		t.Fatalf("c2 ticket moves = %+v, want exactly one", tks)
	}
	tm := tks[0]
	if tm.OldTicket != oldTicket || tm.PID != 1 || tm.Size != mib(200) {
		t.Fatalf("ticket move %+v does not match parked request (ticket %d, pid 1, 200 MiB)", tm, oldTicket)
	}
	if tm.Outcome != core.TicketMigrated || tm.NewTicket == 0 {
		t.Fatalf("ticket move %+v, want migrated with a fresh ticket", tm)
	}

	mustNode(t, c, "c0", 1)
	mustNode(t, c, "c2", 1)
	if sts := c.NodeStatuses(); sts[0].State != "down" || sts[0].Failovers != 1 {
		t.Fatalf("node 0 status after failover = %+v", sts[0])
	}
	// The migrated parked request is live on the survivor under its new
	// ticket.
	pend, err := c.PendingRequests("c2")
	if err != nil {
		t.Fatal(err)
	}
	if len(pend) != 1 || pend[0].Ticket != tm.NewTicket {
		t.Fatalf("survivor pending = %+v, want the migrated ticket %d", pend, tm.NewTicket)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFailNodeEvictsWithoutSurvivor pins the other failover outcome: no
// eligible node can take the containers, so they are evicted and every
// parked ticket is observably marked evicted — and with the whole
// cluster out of service, admission fails closed.
func TestFailNodeEvictsWithoutSurvivor(t *testing.T) {
	c := newMembershipCluster(t, Config{})
	// Drain node 1 up front: both containers are forced onto node 0, and
	// the later failover has nowhere to migrate.
	if err := c.Drain(1); err != nil {
		t.Fatal(err)
	}
	for _, id := range []core.ContainerID{"c0", "c2"} {
		if _, err := c.Register(id, mib(450)); err != nil {
			t.Fatal(err)
		}
	}
	mustNode(t, c, "c0", 0)
	mustNode(t, c, "c2", 0)
	res, err := c.RequestAlloc("c2", 1, mib(200))
	if err != nil || res.Decision != core.Suspend {
		t.Fatalf("setup alloc: %v (decision %v), want suspend", err, res.Decision)
	}
	rep, err := c.FailNode(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Moves) != 2 {
		t.Fatalf("report = %+v, want 2 moves", rep)
	}
	for _, mv := range rep.Moves {
		if !mv.Evicted || mv.To != -1 {
			t.Fatalf("move %s = %+v, want eviction", mv.ID, mv)
		}
	}
	tks := rep.Moves[1].Tickets
	if len(tks) != 1 || tks[0].Outcome != core.TicketEvicted || tks[0].OldTicket != res.Ticket {
		t.Fatalf("evicted ticket moves = %+v, want the parked ticket marked evicted", tks)
	}
	if _, _, err := c.NodePlacement("c0"); err == nil {
		t.Fatal("evicted container still placed")
	}

	// Down + draining: no eligible node, fail closed.
	if _, err := c.Register("c3", mib(100)); !errors.Is(err, errs.ErrDaemonUnavailable) {
		t.Fatalf("register with no eligible node = %v, want ErrDaemonUnavailable", err)
	}
	if err := c.Revive(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("c3", mib(100)); err != nil {
		t.Fatalf("register after revive: %v", err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// tickHealth advances the manual clock through n probe rounds, waiting
// each time for the health loop to re-arm its timer — which also means
// the previous round's probes have fully run.
func tickHealth(t *testing.T, clk *clock.Manual, interval time.Duration, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		waitArmed(t, clk)
		clk.Advance(interval)
	}
	waitArmed(t, clk)
}

func waitArmed(t *testing.T, clk *clock.Manual) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for clk.Pending() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("health loop never armed its probe timer")
		}
		runtime.Gosched()
	}
}

// TestHealthLoopTransitions drives the probe loop on the manual clock
// through the full state machine: up → suspect → down (with failover),
// then probe recovery → auto-revival, with draining nodes left alone.
func TestHealthLoopTransitions(t *testing.T) {
	clk := clock.NewManual()
	c := newMembershipCluster(t, Config{Device: core.Config{Clock: clk}})
	if _, err := c.Register("c0", mib(100)); err != nil {
		t.Fatal(err)
	}
	mustNode(t, c, "c0", 0)

	var mu sync.Mutex
	failing := map[int]bool{}
	probed := map[int]int{}
	var transitions []string
	hc := HealthConfig{
		Interval:     time.Second,
		SuspectAfter: 1,
		DownAfter:    3,
		Probe: func(node int) error {
			mu.Lock()
			defer mu.Unlock()
			probed[node]++
			if failing[node] {
				return errors.New("injected probe failure")
			}
			return nil
		},
		OnTransition: func(node int, from, to core.NodeState) {
			mu.Lock()
			defer mu.Unlock()
			transitions = append(transitions, from.String()+"->"+to.String())
		},
	}
	if err := c.StartHealth(hc); err != nil {
		t.Fatal(err)
	}
	defer c.StopHealth()
	if err := c.StartHealth(hc); err == nil {
		t.Fatal("second StartHealth accepted")
	}

	// Healthy rounds keep every node up.
	tickHealth(t, clk, hc.Interval, 2)
	if st, _ := c.State(0); st != core.NodeUp {
		t.Fatalf("state after healthy probes = %v, want up", st)
	}

	// One failed probe: suspect (SuspectAfter=1) but still serving.
	mu.Lock()
	failing[0] = true
	mu.Unlock()
	tickHealth(t, clk, hc.Interval, 1)
	if st, _ := c.State(0); st != core.NodeSuspect {
		t.Fatalf("state after 1 failed probe = %v, want suspect", st)
	}
	if _, err := c.Register("c1", mib(100)); err != nil {
		t.Fatalf("suspect node cluster refused registration: %v", err)
	}

	// Two more: DownAfter=3 reached, node failed over.
	tickHealth(t, clk, hc.Interval, 2)
	if st, _ := c.State(0); st != core.NodeDown {
		t.Fatalf("state after 3 failed probes = %v, want down", st)
	}
	if node, _, err := c.NodePlacement("c0"); err != nil || node != 1 {
		t.Fatalf("c0 after failover on node %d (%v), want migrated to 1", node, err)
	}

	// Probes recover: flapping restart, the fresh slot is revived.
	mu.Lock()
	failing[0] = false
	mu.Unlock()
	tickHealth(t, clk, hc.Interval, 1)
	if st, _ := c.State(0); st != core.NodeUp {
		t.Fatalf("state after probe recovery = %v, want up", st)
	}

	// Draining nodes are never probed and never transition.
	if err := c.Drain(1); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	failing[1] = true
	before := probed[1]
	mu.Unlock()
	tickHealth(t, clk, hc.Interval, 4)
	if st, _ := c.State(1); st != core.NodeDraining {
		t.Fatalf("draining node transitioned to %v under failed probes", st)
	}
	mu.Lock()
	after := probed[1]
	mu.Unlock()
	if after != before {
		t.Fatalf("draining node was probed %d times", after-before)
	}

	c.StopHealth()
	c.StopHealth() // idempotent
	if err := c.StartHealth(HealthConfig{}); err == nil {
		t.Fatal("StartHealth without interval accepted")
	}

	mu.Lock()
	got := append([]string(nil), transitions...)
	mu.Unlock()
	want := []string{"up->suspect", "suspect->down", "down->up"}
	if len(got) != len(want) {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", got, want)
		}
	}
}

func TestNodeStatusesFields(t *testing.T) {
	c := newMembershipCluster(t, Config{Nodes: 2, GPUsPerNode: 2, CapacityPerGPU: mib(500)})
	if _, err := c.Register("c0", mib(100)); err != nil {
		t.Fatal(err)
	}
	sts := c.NodeStatuses()
	if len(sts) != 2 {
		t.Fatalf("NodeStatuses len = %d, want 2", len(sts))
	}
	total := 0
	for i, st := range sts {
		if st.Index != i {
			t.Errorf("status %d has index %d", i, st.Index)
		}
		if st.Name == "" {
			t.Errorf("status %d has no name", i)
		}
		if st.State != "up" {
			t.Errorf("status %d state = %q, want up", i, st.State)
		}
		if st.Capacity != mib(1000) {
			t.Errorf("status %d capacity = %v, want 1000 MiB", i, st.Capacity)
		}
		if st.Failovers != 0 {
			t.Errorf("status %d failovers = %d, want 0", i, st.Failovers)
		}
		total += st.Containers
	}
	if total != 1 {
		t.Errorf("container total across statuses = %d, want 1", total)
	}
	free := bytesize.Size(0)
	for _, st := range sts {
		free += st.Free
	}
	if want := mib(2000) - mib(100); free != want {
		t.Errorf("free across statuses = %v, want %v", free, want)
	}
}
